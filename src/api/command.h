#ifndef ASSET_API_COMMAND_H_
#define ASSET_API_COMMAND_H_

/// \file command.h
/// The transport-agnostic command layer: a `Command`/`Reply` pair
/// mirroring the `Database` surface (begin/commit/abort, object and
/// counter data operations, the §2.2 primitives, checkpoint, metrics),
/// with its own wire encoding.
///
/// Both faces of the system speak this vocabulary: `ApiSession`
/// (session.h) executes commands against an in-process `Database`, and
/// the epoll server (src/server/) is a thin shell that decodes frames
/// into commands, hands them to its connection's ApiSession, and
/// encodes the replies back out. The blocking client (src/client/)
/// builds the same structs and never sees a socket detail beyond
/// connect/close. Anything expressible against Database's public
/// transactional surface is expressible as a command — that is the
/// invariant that keeps the server thin.
///
/// Tid convention: `kCurrentTxn` (0) in a command's tid field means
/// "this session's most recently begun, still-open transaction". It
/// exists for pipelining: a client can send Begin+Write+Commit in one
/// batch without waiting to learn the new tid. Fields referring to
/// *other* transactions (delegation/permit targets) are always
/// explicit kernel tids.

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/object_set.h"
#include "common/op_set.h"
#include "common/result.h"
#include "common/status.h"
#include "core/descriptors.h"

namespace asset::api {

/// Protocol magic ("ASET" as a little-endian u32) and version, both
/// carried by the mandatory kHello first command of a connection.
inline constexpr uint32_t kProtocolMagic = 0x54455341;
/// v2 added the per-command flags byte and the optional deadline field
/// to the command envelope (see EncodeCommand); v3 added the optional
/// trace-context field (trace id + span id) plus the kDumpTrace and
/// kSlowLog admin commands. Client and server ship from one tree, so
/// the handshake accepts exactly this version.
inline constexpr uint16_t kProtocolVersion = 3;

/// In a command's `tid` field: the session's current transaction.
inline constexpr Tid kCurrentTxn = kNullTid;

/// In kPermit's `tid2` field: grant to any transaction (the PermitAny
/// form). Distinct from kCurrentTxn, which resolves to the session's
/// own current transaction.
inline constexpr Tid kAnyTxn = UINT64_MAX;

/// Every operation of the command API. Values are wire-stable: append
/// only, never renumber (docs/NETWORK.md tracks the enum).
enum class CommandType : uint8_t {
  kHello = 1,          ///< magic+version handshake; must be first
  kPing = 2,           ///< liveness no-op
  kBegin = 3,          ///< open a session transaction -> tid
  kCommit = 4,         ///< commit `tid`
  kAbort = 5,          ///< abort `tid`
  kCreate = 6,         ///< create object from `payload` under `tid` -> oid
  kGet = 7,            ///< read object `oid` under `tid` -> bytes
  kPut = 8,            ///< overwrite object `oid` with `payload`
  kDelete = 9,         ///< delete object `oid`
  kCreateCounter = 10, ///< create counter initialized to `i64` -> oid
  kAdd = 11,           ///< commutative add of `i64` to counter `oid`
  kGetCounter = 12,    ///< read counter `oid` -> i64
  kDelegate = 13,      ///< delegate(tid, tid2, objs)
  kPermit = 14,        ///< permit(tid, tid2|any, objs, ops)
  kDependency = 15,    ///< form_dependency(dep_type, tid, tid2)
  kCheckpoint = 16,    ///< fuzzy checkpoint now
  kMetrics = 17,       ///< Prometheus metrics text -> text
  kDumpTrace = 18,     ///< flight-recorder Chrome trace JSON -> text (v3)
  kSlowLog = 19,       ///< slow-request log JSON -> text (v3)
};

/// True for values that decode to a known CommandType.
bool IsValidCommandType(uint8_t raw);

/// "begin", "put", ... (for logs and tests).
const char* CommandTypeToString(CommandType t);

/// One request. A tagged struct rather than a std::variant: every
/// command is a small fixed shape and the flat form keeps encode/decode
/// and the dispatcher switch readable.
struct Command {
  CommandType type = CommandType::kPing;

  /// Optional deadline: the remaining budget, in milliseconds, this
  /// command is worth executing for (0 = none). Deadlines are *relative*
  /// on the wire — no clock synchronization between client and server is
  /// assumed; the server anchors the budget at the moment the command's
  /// bytes arrived. An expired command is rejected with kTimedOut before
  /// dispatch, and an admitted one has its kernel lock waits bounded by
  /// what is left of the budget, aborting the target transaction on
  /// expiry so it can never half-execute (docs/ROBUSTNESS.md).
  uint32_t deadline_ms = 0;

  /// Optional trace context (0 = untraced). A client stamps a fresh
  /// span id per attempt under one trace id per logical call, and the
  /// server tags every stage span it emits for this command with the
  /// pair — one DumpChromeJson then shows the request crossing client
  /// and server on the shared steady clock. Carried on the wire only
  /// when trace_id != 0 (envelope flag bit 1, v3).
  uint64_t trace_id = 0;
  uint64_t span_id = 0;

  /// Primary transaction (kCurrentTxn = the session's current).
  Tid tid = kCurrentTxn;
  /// Delegation/permit grantee or dependency dependent. For kPermit,
  /// kNullTid means "any transaction" (the PermitAny form).
  Tid tid2 = kNullTid;
  ObjectId oid = kNullObjectId;
  /// Counter initial value (kCreateCounter) or delta (kAdd).
  int64_t i64 = 0;
  /// DependencyType for kDependency.
  uint8_t dep_type = 0;
  /// OpSet bits for kPermit.
  uint8_t ops = 0;
  /// Object set for kDelegate/kPermit: the wildcard or explicit ids.
  bool objs_all = true;
  std::vector<ObjectId> objs;
  /// Object bytes for kCreate/kPut.
  std::vector<uint8_t> payload;
  /// kHello only.
  uint32_t magic = 0;
  uint16_t version = 0;

  ObjectSet object_set() const {
    return objs_all ? ObjectSet::All() : ObjectSet(objs);
  }

  /// Fluent deadline attachment: `Command::Begin().WithDeadline(50)`.
  Command&& WithDeadline(uint32_t ms) && {
    deadline_ms = ms;
    return std::move(*this);
  }
  Command& WithDeadline(uint32_t ms) & {
    deadline_ms = ms;
    return *this;
  }

  /// Fluent trace-context attachment (trace must be nonzero to ride the
  /// wire): `Command::Get(oid).WithTrace(trace, span)`.
  Command&& WithTrace(uint64_t trace, uint64_t span) && {
    trace_id = trace;
    span_id = span;
    return std::move(*this);
  }
  Command& WithTrace(uint64_t trace, uint64_t span) & {
    trace_id = trace;
    span_id = span;
    return *this;
  }

  // --- Constructors for every shape (the client and tests use these;
  // the field soup above is for the codec and dispatcher) -------------
  static Command Hello();
  static Command Ping();
  static Command Begin();
  static Command Commit(Tid t = kCurrentTxn);
  static Command Abort(Tid t = kCurrentTxn);
  static Command Create(std::span<const uint8_t> data, Tid t = kCurrentTxn);
  static Command Get(ObjectId oid, Tid t = kCurrentTxn);
  static Command Put(ObjectId oid, std::span<const uint8_t> data,
                     Tid t = kCurrentTxn);
  static Command Delete(ObjectId oid, Tid t = kCurrentTxn);
  static Command CreateCounter(int64_t initial, Tid t = kCurrentTxn);
  static Command Add(ObjectId oid, int64_t delta, Tid t = kCurrentTxn);
  static Command GetCounter(ObjectId oid, Tid t = kCurrentTxn);
  static Command Delegate(Tid ti, Tid tj, ObjectSet objs = ObjectSet::All());
  static Command Permit(Tid ti, Tid tj, ObjectSet objs = ObjectSet::All(),
                        OpSet ops = OpSet::All());
  static Command PermitAnyTxn(Tid ti, ObjectSet objs = ObjectSet::All(),
                              OpSet ops = OpSet::All());
  static Command Dependency(DependencyType type, Tid ti, Tid tj);
  static Command Checkpoint();
  static Command Metrics();
  static Command DumpTrace();
  static Command SlowLog();
};

/// What a reply carries besides its status.
enum class ReplyValueKind : uint8_t {
  kNone = 0,
  kTid = 1,
  kOid = 2,
  kI64 = 3,
  kBytes = 4,
  kText = 5,
};

/// One response. Replies are self-describing (status + tagged value),
/// so a pipelining client can decode them without remembering which
/// request each answers — only the order matters.
struct Reply {
  StatusCode code = StatusCode::kOk;
  std::string message;
  ReplyValueKind kind = ReplyValueKind::kNone;
  uint64_t u64 = 0;  ///< kTid / kOid
  int64_t i64 = 0;   ///< kI64
  std::vector<uint8_t> bytes;
  std::string text;

  bool ok() const { return code == StatusCode::kOk; }
  /// The reply's status (OK or code+message).
  Status ToStatus() const;

  static Reply Ok();
  static Reply OkTid(Tid t);
  static Reply OkOid(ObjectId oid);
  static Reply OkI64(int64_t v);
  static Reply OkBytes(std::vector<uint8_t> b);
  static Reply OkText(std::string t);
  static Reply FromStatus(const Status& s);
};

// --- Codec -----------------------------------------------------------
//
// Encoders append one *payload* (no frame header) to `out`; wrap with
// AppendFrame for the wire. Decoders take exactly one payload and
// reject truncation, unknown tags, overrunning inner lengths, and
// trailing garbage — a decode error on the server closes the
// connection, so the codec is strict by design.

void EncodeCommand(const Command& cmd, std::vector<uint8_t>* out);
Result<Command> DecodeCommand(std::span<const uint8_t> payload);

void EncodeReply(const Reply& reply, std::vector<uint8_t>* out);
Result<Reply> DecodeReply(std::span<const uint8_t> payload);

}  // namespace asset::api

#endif  // ASSET_API_COMMAND_H_
