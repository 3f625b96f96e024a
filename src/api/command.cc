#include "api/command.h"

#include "api/wire.h"

namespace asset::api {

namespace {

/// Object-set cap in one command: a delegation/permit over more ids
/// than this is rejected at decode time (it would never fit a sane
/// frame anyway and bounds allocation on hostile input).
constexpr uint32_t kMaxObjSetIds = 1u << 20;

/// Envelope flag bits (the u8 after the command tag). Unknown bits are
/// a decode error — a newer sender cannot silently lose semantics on an
/// older receiver.
constexpr uint8_t kFlagHasDeadline = 1u << 0;
constexpr uint8_t kFlagHasTrace = 1u << 1;  ///< v3: trace id + span id
constexpr uint8_t kKnownFlags = kFlagHasDeadline | kFlagHasTrace;

bool HasOid(CommandType t) {
  switch (t) {
    case CommandType::kGet:
    case CommandType::kPut:
    case CommandType::kDelete:
    case CommandType::kAdd:
    case CommandType::kGetCounter:
      return true;
    default:
      return false;
  }
}

bool HasPayload(CommandType t) {
  return t == CommandType::kCreate || t == CommandType::kPut;
}

bool HasI64(CommandType t) {
  return t == CommandType::kCreateCounter || t == CommandType::kAdd;
}

void PutObjectSetFields(WireWriter* w, const Command& cmd) {
  w->PutU8(cmd.objs_all ? 1 : 0);
  if (!cmd.objs_all) {
    w->PutU32(static_cast<uint32_t>(cmd.objs.size()));
    for (ObjectId id : cmd.objs) w->PutU64(id);
  }
}

bool GetObjectSetFields(WireReader* r, Command* cmd) {
  uint8_t all;
  if (!r->GetU8(&all)) return false;
  if (all > 1) return false;
  cmd->objs_all = all == 1;
  cmd->objs.clear();
  if (cmd->objs_all) return true;
  uint32_t n;
  if (!r->GetU32(&n)) return false;
  if (n > kMaxObjSetIds || static_cast<size_t>(n) * 8 > r->Remaining()) {
    return false;
  }
  cmd->objs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ObjectId id;
    if (!r->GetU64(&id)) return false;
    cmd->objs.push_back(id);
  }
  return true;
}

}  // namespace

bool IsValidCommandType(uint8_t raw) {
  return raw >= static_cast<uint8_t>(CommandType::kHello) &&
         raw <= static_cast<uint8_t>(CommandType::kSlowLog);
}

const char* CommandTypeToString(CommandType t) {
  switch (t) {
    case CommandType::kHello: return "hello";
    case CommandType::kPing: return "ping";
    case CommandType::kBegin: return "begin";
    case CommandType::kCommit: return "commit";
    case CommandType::kAbort: return "abort";
    case CommandType::kCreate: return "create";
    case CommandType::kGet: return "get";
    case CommandType::kPut: return "put";
    case CommandType::kDelete: return "delete";
    case CommandType::kCreateCounter: return "create_counter";
    case CommandType::kAdd: return "add";
    case CommandType::kGetCounter: return "get_counter";
    case CommandType::kDelegate: return "delegate";
    case CommandType::kPermit: return "permit";
    case CommandType::kDependency: return "dependency";
    case CommandType::kCheckpoint: return "checkpoint";
    case CommandType::kMetrics: return "metrics";
    case CommandType::kDumpTrace: return "dump_trace";
    case CommandType::kSlowLog: return "slow_log";
  }
  return "unknown";
}

Command Command::Hello() {
  Command c;
  c.type = CommandType::kHello;
  c.magic = kProtocolMagic;
  c.version = kProtocolVersion;
  return c;
}

Command Command::Ping() {
  Command c;
  c.type = CommandType::kPing;
  return c;
}

Command Command::Begin() {
  Command c;
  c.type = CommandType::kBegin;
  return c;
}

Command Command::Commit(Tid t) {
  Command c;
  c.type = CommandType::kCommit;
  c.tid = t;
  return c;
}

Command Command::Abort(Tid t) {
  Command c;
  c.type = CommandType::kAbort;
  c.tid = t;
  return c;
}

Command Command::Create(std::span<const uint8_t> data, Tid t) {
  Command c;
  c.type = CommandType::kCreate;
  c.tid = t;
  c.payload.assign(data.begin(), data.end());
  return c;
}

Command Command::Get(ObjectId oid, Tid t) {
  Command c;
  c.type = CommandType::kGet;
  c.tid = t;
  c.oid = oid;
  return c;
}

Command Command::Put(ObjectId oid, std::span<const uint8_t> data, Tid t) {
  Command c;
  c.type = CommandType::kPut;
  c.tid = t;
  c.oid = oid;
  c.payload.assign(data.begin(), data.end());
  return c;
}

Command Command::Delete(ObjectId oid, Tid t) {
  Command c;
  c.type = CommandType::kDelete;
  c.tid = t;
  c.oid = oid;
  return c;
}

Command Command::CreateCounter(int64_t initial, Tid t) {
  Command c;
  c.type = CommandType::kCreateCounter;
  c.tid = t;
  c.i64 = initial;
  return c;
}

Command Command::Add(ObjectId oid, int64_t delta, Tid t) {
  Command c;
  c.type = CommandType::kAdd;
  c.tid = t;
  c.oid = oid;
  c.i64 = delta;
  return c;
}

Command Command::GetCounter(ObjectId oid, Tid t) {
  Command c;
  c.type = CommandType::kGetCounter;
  c.tid = t;
  c.oid = oid;
  return c;
}

Command Command::Delegate(Tid ti, Tid tj, ObjectSet objs) {
  Command c;
  c.type = CommandType::kDelegate;
  c.tid = ti;
  c.tid2 = tj;
  c.objs_all = objs.IsAll();
  c.objs = objs.ids();
  return c;
}

Command Command::Permit(Tid ti, Tid tj, ObjectSet objs, OpSet ops) {
  Command c;
  c.type = CommandType::kPermit;
  c.tid = ti;
  c.tid2 = tj;
  c.objs_all = objs.IsAll();
  c.objs = objs.ids();
  c.ops = ops.bits();
  return c;
}

Command Command::PermitAnyTxn(Tid ti, ObjectSet objs, OpSet ops) {
  Command c = Permit(ti, kAnyTxn, std::move(objs), ops);
  return c;
}

Command Command::Dependency(DependencyType type, Tid ti, Tid tj) {
  Command c;
  c.type = CommandType::kDependency;
  c.dep_type = static_cast<uint8_t>(type);
  c.tid = ti;
  c.tid2 = tj;
  return c;
}

Command Command::Checkpoint() {
  Command c;
  c.type = CommandType::kCheckpoint;
  return c;
}

Command Command::Metrics() {
  Command c;
  c.type = CommandType::kMetrics;
  return c;
}

Command Command::DumpTrace() {
  Command c;
  c.type = CommandType::kDumpTrace;
  return c;
}

Command Command::SlowLog() {
  Command c;
  c.type = CommandType::kSlowLog;
  return c;
}

Status Reply::ToStatus() const {
  if (ok()) return Status::OK();
  return Status(code, message);
}

Reply Reply::Ok() { return Reply(); }

Reply Reply::OkTid(Tid t) {
  Reply r;
  r.kind = ReplyValueKind::kTid;
  r.u64 = t;
  return r;
}

Reply Reply::OkOid(ObjectId oid) {
  Reply r;
  r.kind = ReplyValueKind::kOid;
  r.u64 = oid;
  return r;
}

Reply Reply::OkI64(int64_t v) {
  Reply r;
  r.kind = ReplyValueKind::kI64;
  r.i64 = v;
  return r;
}

Reply Reply::OkBytes(std::vector<uint8_t> b) {
  Reply r;
  r.kind = ReplyValueKind::kBytes;
  r.bytes = std::move(b);
  return r;
}

Reply Reply::OkText(std::string t) {
  Reply r;
  r.kind = ReplyValueKind::kText;
  r.text = std::move(t);
  return r;
}

Reply Reply::FromStatus(const Status& s) {
  Reply r;
  r.code = s.code();
  r.message = s.message();
  return r;
}

void EncodeCommand(const Command& cmd, std::vector<uint8_t>* out) {
  WireWriter w(out);
  w.PutU8(static_cast<uint8_t>(cmd.type));
  // The envelope header: flags, then each flagged optional field in
  // flag-bit order (deadline budget, then v3 trace context).
  uint8_t flags = 0;
  if (cmd.deadline_ms > 0) flags |= kFlagHasDeadline;
  if (cmd.trace_id != 0) flags |= kFlagHasTrace;
  w.PutU8(flags);
  if (cmd.deadline_ms > 0) w.PutU32(cmd.deadline_ms);
  if (cmd.trace_id != 0) {
    w.PutU64(cmd.trace_id);
    w.PutU64(cmd.span_id);
  }
  switch (cmd.type) {
    case CommandType::kHello:
      w.PutU32(cmd.magic);
      w.PutU16(cmd.version);
      return;
    case CommandType::kPing:
    case CommandType::kBegin:
    case CommandType::kCheckpoint:
    case CommandType::kMetrics:
    case CommandType::kDumpTrace:
    case CommandType::kSlowLog:
      return;
    case CommandType::kDelegate:
      w.PutU64(cmd.tid);
      w.PutU64(cmd.tid2);
      PutObjectSetFields(&w, cmd);
      return;
    case CommandType::kPermit:
      w.PutU64(cmd.tid);
      w.PutU64(cmd.tid2);
      PutObjectSetFields(&w, cmd);
      w.PutU8(cmd.ops);
      return;
    case CommandType::kDependency:
      w.PutU8(cmd.dep_type);
      w.PutU64(cmd.tid);
      w.PutU64(cmd.tid2);
      return;
    default:
      break;
  }
  // The data-plane shapes share a prefix: tid [oid] [i64] [payload].
  w.PutU64(cmd.tid);
  if (HasOid(cmd.type)) w.PutU64(cmd.oid);
  if (HasI64(cmd.type)) w.PutI64(cmd.i64);
  if (HasPayload(cmd.type)) w.PutBytes(cmd.payload);
}

Result<Command> DecodeCommand(std::span<const uint8_t> payload) {
  WireReader r(payload);
  uint8_t raw;
  if (!r.GetU8(&raw)) {
    return Status::InvalidArgument("command: empty payload");
  }
  if (!IsValidCommandType(raw)) {
    return Status::InvalidArgument("command: unknown type " +
                                   std::to_string(raw));
  }
  Command cmd;
  cmd.type = static_cast<CommandType>(raw);
  uint8_t flags;
  if (!r.GetU8(&flags)) {
    return Status::InvalidArgument("command: truncated envelope");
  }
  if ((flags & ~kKnownFlags) != 0) {
    return Status::InvalidArgument("command: unknown envelope flags " +
                                   std::to_string(flags));
  }
  if ((flags & kFlagHasDeadline) != 0) {
    if (!r.GetU32(&cmd.deadline_ms)) {
      return Status::InvalidArgument("command: truncated deadline");
    }
    if (cmd.deadline_ms == 0) {
      return Status::InvalidArgument("command: zero deadline with flag set");
    }
  }
  if ((flags & kFlagHasTrace) != 0) {
    if (!r.GetU64(&cmd.trace_id) || !r.GetU64(&cmd.span_id)) {
      return Status::InvalidArgument("command: truncated trace context");
    }
    if (cmd.trace_id == 0) {
      return Status::InvalidArgument("command: zero trace id with flag set");
    }
  }
  bool ok = true;
  switch (cmd.type) {
    case CommandType::kHello:
      ok = r.GetU32(&cmd.magic) && r.GetU16(&cmd.version);
      break;
    case CommandType::kPing:
    case CommandType::kBegin:
    case CommandType::kCheckpoint:
    case CommandType::kMetrics:
    case CommandType::kDumpTrace:
    case CommandType::kSlowLog:
      break;
    case CommandType::kDelegate:
      ok = r.GetU64(&cmd.tid) && r.GetU64(&cmd.tid2) &&
           GetObjectSetFields(&r, &cmd);
      break;
    case CommandType::kPermit:
      ok = r.GetU64(&cmd.tid) && r.GetU64(&cmd.tid2) &&
           GetObjectSetFields(&r, &cmd) && r.GetU8(&cmd.ops);
      break;
    case CommandType::kDependency:
      ok = r.GetU8(&cmd.dep_type) && r.GetU64(&cmd.tid) &&
           r.GetU64(&cmd.tid2);
      if (ok && cmd.dep_type >
                    static_cast<uint8_t>(DependencyType::kBeginOnCommit)) {
        return Status::InvalidArgument("command: unknown dependency type");
      }
      break;
    default:
      ok = r.GetU64(&cmd.tid);
      if (ok && HasOid(cmd.type)) ok = r.GetU64(&cmd.oid);
      if (ok && HasI64(cmd.type)) ok = r.GetI64(&cmd.i64);
      if (ok && HasPayload(cmd.type)) ok = r.GetBytes(&cmd.payload);
      break;
  }
  if (!ok) {
    return Status::InvalidArgument("command: truncated payload");
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("command: trailing bytes");
  }
  return cmd;
}

void EncodeReply(const Reply& reply, std::vector<uint8_t>* out) {
  WireWriter w(out);
  w.PutU8(static_cast<uint8_t>(reply.code));
  w.PutString(reply.message);
  w.PutU8(static_cast<uint8_t>(reply.kind));
  switch (reply.kind) {
    case ReplyValueKind::kNone:
      break;
    case ReplyValueKind::kTid:
    case ReplyValueKind::kOid:
      w.PutU64(reply.u64);
      break;
    case ReplyValueKind::kI64:
      w.PutI64(reply.i64);
      break;
    case ReplyValueKind::kBytes:
      w.PutBytes(reply.bytes);
      break;
    case ReplyValueKind::kText:
      w.PutString(reply.text);
      break;
  }
}

Result<Reply> DecodeReply(std::span<const uint8_t> payload) {
  WireReader r(payload);
  uint8_t code, kind;
  Reply reply;
  if (!r.GetU8(&code) || !r.GetString(&reply.message) || !r.GetU8(&kind)) {
    return Status::InvalidArgument("reply: truncated payload");
  }
  if (code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    return Status::InvalidArgument("reply: unknown status code");
  }
  if (kind > static_cast<uint8_t>(ReplyValueKind::kText)) {
    return Status::InvalidArgument("reply: unknown value kind");
  }
  reply.code = static_cast<StatusCode>(code);
  reply.kind = static_cast<ReplyValueKind>(kind);
  bool ok = true;
  switch (reply.kind) {
    case ReplyValueKind::kNone:
      break;
    case ReplyValueKind::kTid:
    case ReplyValueKind::kOid:
      ok = r.GetU64(&reply.u64);
      break;
    case ReplyValueKind::kI64:
      ok = r.GetI64(&reply.i64);
      break;
    case ReplyValueKind::kBytes:
      ok = r.GetBytes(&reply.bytes);
      break;
    case ReplyValueKind::kText:
      ok = r.GetString(&reply.text);
      break;
  }
  if (!ok) return Status::InvalidArgument("reply: truncated payload");
  if (!r.AtEnd()) return Status::InvalidArgument("reply: trailing bytes");
  return reply;
}

}  // namespace asset::api
