#include "api/session.h"

#include <string>
#include <utility>

#include "core/op_deadline.h"

namespace asset::api {

ApiSession::ApiSession(Database* db, Limits limits)
    : db_(db), limits_(limits) {}

void ApiSession::AbortAll() {
  txns_.clear();  // Txn destructors abort anything still active
  current_ = kNullTid;
}

bool ApiSession::TargetsOwnedTxn(CommandType t) {
  switch (t) {
    case CommandType::kCommit:
    case CommandType::kCreate:
    case CommandType::kGet:
    case CommandType::kPut:
    case CommandType::kDelete:
    case CommandType::kCreateCounter:
    case CommandType::kAdd:
    case CommandType::kGetCounter:
      return true;
    default:
      // kBegin has no transaction yet; kDelegate/kPermit/kDependency may
      // name other sessions' transactions, which a deadline expiry here
      // must never abort; control commands touch none.
      return false;
  }
}

bool ApiSession::AbortOwned(Tid wire_tid) {
  Tid t = wire_tid == kCurrentTxn ? current_ : wire_tid;
  if (t == kNullTid) return false;
  auto it = txns_.find(t);
  if (it == txns_.end()) return false;
  it->second.Abort();
  txns_.erase(it);
  if (current_ == t) current_ = kNullTid;
  return true;
}

Reply ApiSession::Execute(const Command& cmd,
                          std::chrono::steady_clock::time_point arrival,
                          Lsn* gate) {
  if (gate != nullptr) *gate = kNullLsn;
  if (cmd.deadline_ms == 0 || cmd.type == CommandType::kAbort) {
    return Dispatch(cmd, gate);
  }
  const auto deadline = arrival + std::chrono::milliseconds(cmd.deadline_ms);
  if (std::chrono::steady_clock::now() >= deadline) {
    ++deadline_stats_.expired_rejects;
    std::string detail = "session: deadline of " +
                         std::to_string(cmd.deadline_ms) +
                         " ms expired before " +
                         std::string(CommandTypeToString(cmd.type)) +
                         " was dispatched";
    if (TargetsOwnedTxn(cmd.type) && AbortOwned(cmd.tid)) {
      detail += "; transaction aborted";
    }
    return Reply::FromStatus(Status::TimedOut(std::move(detail)));
  }
  Reply reply;
  {
    ScopedOpDeadline guard(deadline);
    reply = Dispatch(cmd, gate);
  }
  if (reply.code == StatusCode::kTimedOut && TargetsOwnedTxn(cmd.type)) {
    // The kernel wait hit the deadline. The operation itself unwound
    // cleanly (a timed-out lock acquire changes nothing), but the
    // transaction now holds a half-executed *intent*; abort it so the
    // client can retry from a clean slate. Commit resolves its own
    // handle, so the txn may already be gone — AbortOwned tolerates that.
    ++deadline_stats_.timeout_aborts;
    if (AbortOwned(cmd.tid)) reply.message += "; transaction aborted";
  }
  return reply;
}

Txn* ApiSession::Resolve(Tid wire_tid, Reply* error) {
  Tid t = wire_tid == kCurrentTxn ? current_ : wire_tid;
  if (t == kNullTid) {
    *error = Reply::FromStatus(
        Status::InvalidArgument("session: no current transaction"));
    return nullptr;
  }
  auto it = txns_.find(t);
  if (it == txns_.end()) {
    *error = Reply::FromStatus(Status::NotFound(
        "session: transaction " + std::to_string(t) +
        " is not owned by this session"));
    return nullptr;
  }
  return &it->second;
}

Reply ApiSession::Dispatch(const Command& cmd, Lsn* gate) {
  if (limits_.require_hello && !handshaken_ &&
      cmd.type != CommandType::kHello) {
    return Reply::FromStatus(
        Status::IllegalState("session: handshake required before " +
                             std::string(CommandTypeToString(cmd.type))));
  }
  switch (cmd.type) {
    case CommandType::kHello: {
      if (cmd.magic != kProtocolMagic) {
        return Reply::FromStatus(
            Status::InvalidArgument("hello: bad protocol magic"));
      }
      if (cmd.version != kProtocolVersion) {
        return Reply::FromStatus(Status::InvalidArgument(
            "hello: unsupported protocol version " +
            std::to_string(cmd.version) + " (server speaks " +
            std::to_string(kProtocolVersion) + ")"));
      }
      handshaken_ = true;
      return Reply::OkI64(kProtocolVersion);
    }
    case CommandType::kPing:
      return Reply::Ok();

    case CommandType::kBegin: {
      if (txns_.size() >= limits_.max_open_txns) {
        return Reply::FromStatus(Status::ResourceExhausted(
            "session: open-transaction limit (" +
            std::to_string(limits_.max_open_txns) + ") reached"));
      }
      auto txn = db_->Begin();
      if (!txn.ok()) return Reply::FromStatus(txn.status());
      Tid t = txn->id();
      txns_.emplace(t, std::move(*txn));
      current_ = t;
      return Reply::OkTid(t);
    }

    case CommandType::kCommit:
    case CommandType::kAbort: {
      Reply error;
      Txn* txn = Resolve(cmd.tid, &error);
      if (txn == nullptr) return error;
      Tid t = txn->id();
      Status s = cmd.type == CommandType::kCommit ? txn->Commit(gate)
                                                  : txn->Abort();
      txns_.erase(t);
      if (current_ == t) current_ = kNullTid;
      return Reply::FromStatus(s);
    }

    case CommandType::kCreate: {
      Reply error;
      Txn* txn = Resolve(cmd.tid, &error);
      if (txn == nullptr) return error;
      auto oid = txn->CreateObject(cmd.payload);
      if (!oid.ok()) return Reply::FromStatus(oid.status());
      return Reply::OkOid(*oid);
    }
    case CommandType::kGet: {
      Reply error;
      Txn* txn = Resolve(cmd.tid, &error);
      if (txn == nullptr) return error;
      auto bytes = txn->Read(cmd.oid);
      if (!bytes.ok()) return Reply::FromStatus(bytes.status());
      return Reply::OkBytes(std::move(*bytes));
    }
    case CommandType::kPut: {
      Reply error;
      Txn* txn = Resolve(cmd.tid, &error);
      if (txn == nullptr) return error;
      return Reply::FromStatus(txn->Write(cmd.oid, cmd.payload));
    }
    case CommandType::kDelete: {
      Reply error;
      Txn* txn = Resolve(cmd.tid, &error);
      if (txn == nullptr) return error;
      return Reply::FromStatus(txn->Delete(cmd.oid));
    }

    case CommandType::kCreateCounter: {
      Reply error;
      Txn* txn = Resolve(cmd.tid, &error);
      if (txn == nullptr) return error;
      auto oid = txn->CreateCounter(cmd.i64);
      if (!oid.ok()) return Reply::FromStatus(oid.status());
      return Reply::OkOid(*oid);
    }
    case CommandType::kAdd: {
      Reply error;
      Txn* txn = Resolve(cmd.tid, &error);
      if (txn == nullptr) return error;
      return Reply::FromStatus(txn->Add(cmd.oid, cmd.i64));
    }
    case CommandType::kGetCounter: {
      Reply error;
      Txn* txn = Resolve(cmd.tid, &error);
      if (txn == nullptr) return error;
      auto v = txn->GetCounter(cmd.oid);
      if (!v.ok()) return Reply::FromStatus(v.status());
      return Reply::OkI64(*v);
    }

    case CommandType::kDelegate: {
      Tid ti = ResolveLoose(cmd.tid);
      Tid tj = ResolveLoose(cmd.tid2);
      if (ti == kNullTid || tj == kNullTid) {
        return Reply::FromStatus(Status::InvalidArgument(
            "delegate: no current transaction to resolve"));
      }
      return Reply::FromStatus(db_->Delegate(ti, tj, cmd.object_set()));
    }
    case CommandType::kPermit: {
      Tid ti = ResolveLoose(cmd.tid);
      if (ti == kNullTid) {
        return Reply::FromStatus(Status::InvalidArgument(
            "permit: no current transaction to resolve"));
      }
      OpSet ops = OpSet::FromBits(cmd.ops);
      if (cmd.tid2 == kAnyTxn) {
        return Reply::FromStatus(db_->PermitAny(ti, cmd.object_set(), ops));
      }
      Tid tj = ResolveLoose(cmd.tid2);
      if (tj == kNullTid) {
        return Reply::FromStatus(Status::InvalidArgument(
            "permit: no current transaction to resolve"));
      }
      return Reply::FromStatus(db_->Permit(ti, tj, cmd.object_set(), ops));
    }
    case CommandType::kDependency: {
      Tid ti = ResolveLoose(cmd.tid);
      Tid tj = ResolveLoose(cmd.tid2);
      if (ti == kNullTid || tj == kNullTid) {
        return Reply::FromStatus(Status::InvalidArgument(
            "dependency: no current transaction to resolve"));
      }
      return Reply::FromStatus(db_->FormDependency(
          static_cast<DependencyType>(cmd.dep_type), ti, tj));
    }

    case CommandType::kCheckpoint:
      return Reply::FromStatus(db_->Checkpoint());
    case CommandType::kMetrics:
      return Reply::OkText(db_->MetricsText());
    case CommandType::kDumpTrace:
      return Reply::OkText(db_->DumpTrace());
    case CommandType::kSlowLog:
      // In-process sessions have no connection stages, so no slow log;
      // the server overlays its own entries (kMetrics-style).
      return Reply::OkText("{\"slow_requests\":[]}");
  }
  return Reply::FromStatus(
      Status::InvalidArgument("session: unknown command"));
}

}  // namespace asset::api
