#ifndef ASSET_API_SESSION_H_
#define ASSET_API_SESSION_H_

/// \file session.h
/// The in-process dispatcher of the command API.
///
/// An `ApiSession` is one client's seat at the database: it executes
/// `Command`s against a `Database` and owns every transaction the
/// client begins, so a dropped connection (the session's destruction)
/// aborts whatever was in flight — a network client can never leak a
/// lock-holding transaction any more than a local `Txn` holder can.
///
/// Confinement: a session must be driven from one thread at a time
/// (the transactions it owns are kernel *session* transactions, which
/// carry the same rule). The epoll server satisfies this by pinning
/// each connection to one event-loop worker; in-process users just
/// call Execute from one thread.
///
/// Tid resolution: `kCurrentTxn` (0) in a command resolves to the
/// session's most recently begun, still-open transaction; data
/// operations and commit/abort are only valid on transactions this
/// session owns. Delegation/permit/dependency targets may be any
/// kernel tid — cross-session cooperation is the point of those
/// primitives.

#include <chrono>
#include <cstdint>
#include <unordered_map>

#include "api/command.h"
#include "core/database.h"

namespace asset::api {

/// Per-client command executor and transaction owner.
class ApiSession {
 public:
  struct Limits {
    /// Open (begun, unterminated) transactions one session may hold;
    /// kBegin past this returns kResourceExhausted.
    size_t max_open_txns = 64;
    /// Whether a kHello must precede every other command (the wire
    /// server requires it; in-process users may skip).
    bool require_hello = false;
  };

  explicit ApiSession(Database* db) : ApiSession(db, Limits{}) {}
  ApiSession(Database* db, Limits limits);

  /// Aborts every still-open transaction of this session.
  ~ApiSession() = default;

  ApiSession(const ApiSession&) = delete;
  ApiSession& operator=(const ApiSession&) = delete;
  ApiSession(ApiSession&&) = default;
  ApiSession& operator=(ApiSession&&) = default;

  /// Deadline outcomes of this session, for the server's metrics (the
  /// session is single-threaded, so plain counters suffice).
  struct DeadlineStats {
    /// Commands whose budget had already expired before dispatch.
    uint64_t expired_rejects = 0;
    /// Commands whose kernel wait hit the deadline mid-flight; each
    /// aborted its target transaction.
    uint64_t timeout_aborts = 0;
  };

  /// Executes one command; never throws, never returns garbage — every
  /// failure is a Reply with the status code and message. Ignores any
  /// deadline the command carries (in-process callers have no arrival
  /// anchor); the wire server uses the overload below.
  Reply Execute(const Command& cmd) { return Dispatch(cmd, nullptr); }

  /// Executes one command whose deadline budget (if any) is anchored at
  /// `arrival` — the moment the command's bytes were received. An
  /// already-expired command is rejected with kTimedOut before dispatch
  /// and its target transaction (if this session owns it) is aborted so
  /// a skipped step can never leave a half-executed transaction; an
  /// admitted command runs with its kernel lock waits bounded by the
  /// remaining budget and gets the same abort treatment if a wait times
  /// out. kAbort is exempt: aborts are how deadlines clean up, so they
  /// always dispatch.
  ///
  /// A non-null `gate` is the durability gate of a strict kCommit (see
  /// TransactionManager::CommitTxn): set to the commit lsn when the
  /// returned OK may be sent only once `durable_lsn() >= *gate`, else
  /// to kNullLsn. The gate is server-internal; it is never encoded.
  Reply Execute(const Command& cmd,
                std::chrono::steady_clock::time_point arrival,
                Lsn* gate = nullptr);

  /// Aborts every open transaction now (graceful server drain).
  void AbortAll();

  /// Open transactions owned by this session.
  size_t open_txns() const { return txns_.size(); }
  /// The tid kCurrentTxn resolves to (kNullTid if none).
  Tid current() const { return current_; }
  /// True once a valid kHello was executed.
  bool handshaken() const { return handshaken_; }
  const DeadlineStats& deadline_stats() const { return deadline_stats_; }

 private:
  /// Execute's body; `gate` as in the arrival-anchored overload.
  Reply Dispatch(const Command& cmd, Lsn* gate);
  /// Maps a wire tid to an owned transaction handle, resolving
  /// kCurrentTxn. Null on failure, with *error filled.
  Txn* Resolve(Tid wire_tid, Reply* error);
  /// Aborts the owned transaction `wire_tid` names (kCurrentTxn
  /// resolved); returns false if this session owns no such transaction.
  bool AbortOwned(Tid wire_tid);
  /// True for commands that operate on a transaction this session owns
  /// (the ones a deadline expiry must abort).
  static bool TargetsOwnedTxn(CommandType t);
  /// Resolves a primitive's tid argument (kCurrentTxn allowed, any
  /// kernel tid passed through).
  Tid ResolveLoose(Tid wire_tid) const {
    return wire_tid == kCurrentTxn ? current_ : wire_tid;
  }

  Database* db_;
  Limits limits_;
  DeadlineStats deadline_stats_;
  bool handshaken_ = false;
  std::unordered_map<Tid, Txn> txns_;
  Tid current_ = kNullTid;
};

}  // namespace asset::api

#endif  // ASSET_API_SESSION_H_
