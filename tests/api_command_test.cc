// The command-layer codec: roundtrips for every command and reply
// shape, strictness against malformed/truncated/oversized payloads
// (the server closes a connection on any decode failure, so every
// rejection here is a connection the wire layer refuses to mis-parse),
// and the frame splitter itself.

#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "api/command.h"
#include "api/session.h"
#include "api/wire.h"
#include "core/database.h"

namespace asset::api {
namespace {

std::vector<uint8_t> Encode(const Command& cmd) {
  std::vector<uint8_t> out;
  EncodeCommand(cmd, &out);
  return out;
}

Command Roundtrip(const Command& cmd) {
  auto decoded = DecodeCommand(Encode(cmd));
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return decoded.ValueOr(Command{});
}

TEST(WireTest, WriterReaderRoundtrip) {
  std::vector<uint8_t> buf;
  WireWriter w(&buf);
  w.PutU8(0xAB);
  w.PutU16(0xBEEF);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI64(-42);
  w.PutString("hello");

  WireReader r(buf);
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  std::string s;
  ASSERT_TRUE(r.GetU8(&u8));
  ASSERT_TRUE(r.GetU16(&u16));
  ASSERT_TRUE(r.GetU32(&u32));
  ASSERT_TRUE(r.GetU64(&u64));
  ASSERT_TRUE(r.GetI64(&i64));
  ASSERT_TRUE(r.GetString(&s));
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireTest, ReaderRejectsTruncationAndStaysFailed) {
  std::vector<uint8_t> buf = {0x01, 0x02};
  WireReader r(buf);
  uint32_t v;
  EXPECT_FALSE(r.GetU32(&v));
  EXPECT_FALSE(r.ok());
  uint8_t b;
  EXPECT_FALSE(r.GetU8(&b));  // sticky: no reads after a failure
}

TEST(WireTest, ReaderRejectsLyingInnerLength) {
  std::vector<uint8_t> buf;
  WireWriter w(&buf);
  w.PutU32(1000);  // claims 1000 bytes follow
  buf.push_back(0x55);
  WireReader r(buf);
  std::vector<uint8_t> out;
  EXPECT_FALSE(r.GetBytes(&out));
  EXPECT_FALSE(r.ok());
}

TEST(WireTest, FrameSplitStates) {
  std::vector<uint8_t> buf;
  std::span<const uint8_t> payload;
  EXPECT_EQ(TrySplitFrame(buf, 1024, &payload), FrameSplit::kNeedMore);

  std::vector<uint8_t> body = {1, 2, 3};
  AppendFrame(body, &buf);
  EXPECT_EQ(TrySplitFrame(buf, 1024, &payload), FrameSplit::kFrame);
  EXPECT_EQ(std::vector<uint8_t>(payload.begin(), payload.end()), body);

  // Truncated frame: header present, body short.
  std::vector<uint8_t> cut(buf.begin(), buf.end() - 1);
  EXPECT_EQ(TrySplitFrame(cut, 1024, &payload), FrameSplit::kNeedMore);

  // Oversized and zero-length are both unrecoverable.
  EXPECT_EQ(TrySplitFrame(buf, 2, &payload), FrameSplit::kOversized);
  std::vector<uint8_t> zero = {0, 0, 0, 0};
  EXPECT_EQ(TrySplitFrame(zero, 1024, &payload), FrameSplit::kOversized);
}

TEST(CommandCodecTest, RoundtripsEveryShape) {
  {
    Command c = Roundtrip(Command::Hello());
    EXPECT_EQ(c.type, CommandType::kHello);
    EXPECT_EQ(c.magic, kProtocolMagic);
    EXPECT_EQ(c.version, kProtocolVersion);
  }
  EXPECT_EQ(Roundtrip(Command::Ping()).type, CommandType::kPing);
  EXPECT_EQ(Roundtrip(Command::Begin()).type, CommandType::kBegin);
  {
    Command c = Roundtrip(Command::Commit(77));
    EXPECT_EQ(c.type, CommandType::kCommit);
    EXPECT_EQ(c.tid, 77u);
  }
  EXPECT_EQ(Roundtrip(Command::Abort(9)).tid, 9u);
  {
    std::vector<uint8_t> data = {1, 2, 3, 4, 5};
    Command c = Roundtrip(Command::Create(data, 3));
    EXPECT_EQ(c.type, CommandType::kCreate);
    EXPECT_EQ(c.tid, 3u);
    EXPECT_EQ(c.payload, data);
  }
  {
    Command c = Roundtrip(Command::Get(123, 4));
    EXPECT_EQ(c.oid, 123u);
    EXPECT_EQ(c.tid, 4u);
  }
  {
    std::vector<uint8_t> data(300, 0xEE);  // multi-byte length
    Command c = Roundtrip(Command::Put(55, data));
    EXPECT_EQ(c.oid, 55u);
    EXPECT_EQ(c.payload, data);
    EXPECT_EQ(c.tid, kCurrentTxn);
  }
  EXPECT_EQ(Roundtrip(Command::Delete(88)).oid, 88u);
  {
    Command c = Roundtrip(Command::CreateCounter(-5));
    EXPECT_EQ(c.type, CommandType::kCreateCounter);
    EXPECT_EQ(c.i64, -5);
  }
  {
    Command c = Roundtrip(Command::Add(7, -100));
    EXPECT_EQ(c.oid, 7u);
    EXPECT_EQ(c.i64, -100);
  }
  EXPECT_EQ(Roundtrip(Command::GetCounter(11)).oid, 11u);
  {
    Command c = Roundtrip(Command::Delegate(1, 2, ObjectSet({10, 20, 30})));
    EXPECT_EQ(c.type, CommandType::kDelegate);
    EXPECT_EQ(c.tid, 1u);
    EXPECT_EQ(c.tid2, 2u);
    EXPECT_FALSE(c.objs_all);
    EXPECT_EQ(c.objs, (std::vector<ObjectId>{10, 20, 30}));
  }
  {
    Command c = Roundtrip(Command::Delegate(1, 2));
    EXPECT_TRUE(c.objs_all);
  }
  {
    Command c = Roundtrip(
        Command::Permit(3, 4, ObjectSet({5}), OpSet::FromBits(0x3)));
    EXPECT_EQ(c.type, CommandType::kPermit);
    EXPECT_EQ(c.ops, 0x3);
    EXPECT_EQ(c.tid2, 4u);
  }
  {
    Command c = Roundtrip(Command::PermitAnyTxn(6));
    EXPECT_EQ(c.tid2, kAnyTxn);
  }
  {
    Command c =
        Roundtrip(Command::Dependency(DependencyType::kBeginOnCommit, 8, 9));
    EXPECT_EQ(c.type, CommandType::kDependency);
    EXPECT_EQ(static_cast<DependencyType>(c.dep_type),
              DependencyType::kBeginOnCommit);
    EXPECT_EQ(c.tid, 8u);
    EXPECT_EQ(c.tid2, 9u);
  }
  EXPECT_EQ(Roundtrip(Command::Checkpoint()).type, CommandType::kCheckpoint);
  EXPECT_EQ(Roundtrip(Command::Metrics()).type, CommandType::kMetrics);
  EXPECT_EQ(Roundtrip(Command::DumpTrace()).type, CommandType::kDumpTrace);
  EXPECT_EQ(Roundtrip(Command::SlowLog()).type, CommandType::kSlowLog);
}

TEST(CommandCodecTest, RoundtripsTraceContext) {
  // Trace alone, trace + deadline, and every envelope-flag combination
  // on a payload-carrying shape.
  {
    Command c = Roundtrip(Command::Begin().WithTrace(0xA1B2C3D4E5F60718ull,
                                                     42));
    EXPECT_EQ(c.trace_id, 0xA1B2C3D4E5F60718ull);
    EXPECT_EQ(c.span_id, 42u);
    EXPECT_EQ(c.deadline_ms, 0u);
  }
  {
    Command c = Roundtrip(
        Command::Put(9, std::vector<uint8_t>{1, 2}, 3).WithDeadline(250)
            .WithTrace(7, 8));
    EXPECT_EQ(c.trace_id, 7u);
    EXPECT_EQ(c.span_id, 8u);
    EXPECT_EQ(c.deadline_ms, 250u);
    EXPECT_EQ(c.oid, 9u);
    EXPECT_EQ(c.payload, (std::vector<uint8_t>{1, 2}));
  }
  {
    // Untraced commands keep the exact v2 byte layout.
    Command c = Roundtrip(Command::Commit(5));
    EXPECT_EQ(c.trace_id, 0u);
    EXPECT_EQ(c.span_id, 0u);
    std::vector<uint8_t> untraced = Encode(Command::Commit(5));
    EXPECT_EQ(untraced[1], 0);  // no envelope flags
  }
}

TEST(CommandCodecTest, RejectsZeroTraceIdWithFlagSet) {
  std::vector<uint8_t> buf;
  WireWriter w(&buf);
  w.PutU8(static_cast<uint8_t>(CommandType::kPing));
  w.PutU8(1u << 1);  // trace flag
  w.PutU64(0);       // zero trace id: invalid with the flag set
  w.PutU64(1);
  EXPECT_FALSE(DecodeCommand(buf).ok());
}

TEST(CommandCodecTest, RejectsTruncatedTraceContext) {
  std::vector<uint8_t> full = Encode(Command::Ping().WithTrace(77, 88));
  for (size_t cut = 1; cut < full.size(); ++cut) {
    std::vector<uint8_t> prefix(full.begin(), full.begin() + cut);
    EXPECT_FALSE(DecodeCommand(prefix).ok()) << "cut at " << cut;
  }
}

TEST(CommandCodecTest, RejectsUnknownEnvelopeFlags) {
  std::vector<uint8_t> buf = Encode(Command::Ping());
  buf[1] = 1u << 2;  // first bit above the known set
  EXPECT_FALSE(DecodeCommand(buf).ok());
  buf[1] = 0x80;
  EXPECT_FALSE(DecodeCommand(buf).ok());
}

TEST(CommandCodecTest, RejectsUnknownType) {
  std::vector<uint8_t> buf = Encode(Command::Ping());
  buf[0] = 0xFF;
  EXPECT_FALSE(DecodeCommand(buf).ok());
  buf[0] = 0;
  EXPECT_FALSE(DecodeCommand(buf).ok());
}

TEST(CommandCodecTest, RejectsEveryTruncation) {
  // Every proper prefix of every command must be rejected, never
  // mis-decoded: byte streams deliver prefixes all the time and the
  // framing, not the codec, is what reassembles them.
  std::vector<Command> all = {
      Command::Hello(),
      Command::Begin(),
      Command::Commit(7),
      Command::Create(std::vector<uint8_t>(10, 0xAA), 3),
      Command::Put(5, std::vector<uint8_t>(4, 1), 2),
      Command::CreateCounter(9),
      Command::Add(3, 4),
      Command::Delegate(1, 2, ObjectSet({1, 2, 3})),
      Command::Permit(3, 4, ObjectSet({5, 6}), OpSet::All()),
      Command::Dependency(DependencyType::kCommit, 1, 2),
      Command::Begin().WithTrace(11, 22),
      Command::Get(5, 2).WithDeadline(100).WithTrace(33, 44),
      Command::DumpTrace(),
      Command::SlowLog(),
  };
  for (const Command& cmd : all) {
    std::vector<uint8_t> full = Encode(cmd);
    for (size_t cut = 1; cut < full.size(); ++cut) {
      std::vector<uint8_t> prefix(full.begin(), full.begin() + cut);
      EXPECT_FALSE(DecodeCommand(prefix).ok())
          << CommandTypeToString(cmd.type) << " cut at " << cut;
    }
  }
}

TEST(CommandCodecTest, RejectsTrailingGarbage) {
  std::vector<uint8_t> buf = Encode(Command::Commit(7));
  buf.push_back(0x00);
  EXPECT_FALSE(DecodeCommand(buf).ok());
}

TEST(CommandCodecTest, RejectsBadDependencyType) {
  std::vector<uint8_t> buf =
      Encode(Command::Dependency(DependencyType::kCommit, 1, 2));
  buf[2] = 200;  // dep_type byte right after the tag + flags envelope
  EXPECT_FALSE(DecodeCommand(buf).ok());
}

TEST(CommandCodecTest, RejectsObjectSetCountOverrun) {
  // Claim 100000 object ids but supply none.
  std::vector<uint8_t> buf;
  WireWriter w(&buf);
  w.PutU8(static_cast<uint8_t>(CommandType::kDelegate));
  w.PutU8(0);  // envelope flags: no deadline
  w.PutU64(1);
  w.PutU64(2);
  w.PutU8(0);          // not-all: explicit list follows
  w.PutU32(100000);    // lying count
  EXPECT_FALSE(DecodeCommand(buf).ok());
}

TEST(CommandCodecTest, FuzzRandomBytesNeverCrash) {
  std::mt19937 rng(20240807);
  std::uniform_int_distribution<int> len(0, 96);
  std::uniform_int_distribution<int> byte(0, 255);
  int decoded = 0;
  for (int i = 0; i < 20000; ++i) {
    std::vector<uint8_t> buf(len(rng));
    for (auto& b : buf) b = static_cast<uint8_t>(byte(rng));
    auto r = DecodeCommand(buf);
    if (r.ok()) decoded++;  // fine, as long as nothing crashed or threw
    auto rep = DecodeReply(buf);
    (void)rep;
  }
  // Random bytes overwhelmingly fail to parse.
  EXPECT_LT(decoded, 2000);
}

TEST(CommandCodecTest, FuzzMutatedValidFramesNeverCrash) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> byte(0, 255);
  std::vector<uint8_t> base =
      Encode(Command::Permit(3, 4, ObjectSet({5, 6, 7}), OpSet::All()));
  for (int i = 0; i < 20000; ++i) {
    std::vector<uint8_t> buf = base;
    std::uniform_int_distribution<size_t> pos(0, buf.size() - 1);
    buf[pos(rng)] = static_cast<uint8_t>(byte(rng));
    auto r = DecodeCommand(buf);
    (void)r;
  }
}

TEST(CommandCodecTest, FuzzMutatedTracedFramesNeverCrash) {
  std::mt19937 rng(20260808);
  std::uniform_int_distribution<int> byte(0, 255);
  std::vector<uint8_t> base =
      Encode(Command::Put(5, std::vector<uint8_t>{1, 2, 3}, 4)
                 .WithDeadline(50)
                 .WithTrace(0xDEADBEEF, 7));
  for (int i = 0; i < 20000; ++i) {
    std::vector<uint8_t> buf = base;
    std::uniform_int_distribution<size_t> pos(0, buf.size() - 1);
    buf[pos(rng)] = static_cast<uint8_t>(byte(rng));
    auto r = DecodeCommand(buf);
    if (r.ok() && r->trace_id == 0) {
      // A decode that claims success must never surface a zero trace
      // id out of a frame that carried the trace flag intact.
      EXPECT_EQ(buf[1] & (1u << 1), 0u);
    }
  }
}

TEST(ReplyCodecTest, RoundtripsEveryKind) {
  auto roundtrip = [](const Reply& r) {
    std::vector<uint8_t> buf;
    EncodeReply(r, &buf);
    auto d = DecodeReply(buf);
    EXPECT_TRUE(d.ok()) << d.status().ToString();
    return d.ValueOr(Reply{});
  };
  {
    Reply r = roundtrip(Reply::Ok());
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.kind, ReplyValueKind::kNone);
  }
  EXPECT_EQ(roundtrip(Reply::OkTid(42)).u64, 42u);
  EXPECT_EQ(roundtrip(Reply::OkOid(77)).u64, 77u);
  EXPECT_EQ(roundtrip(Reply::OkI64(-5)).i64, -5);
  {
    Reply r = roundtrip(Reply::OkBytes({9, 8, 7}));
    EXPECT_EQ(r.bytes, (std::vector<uint8_t>{9, 8, 7}));
  }
  EXPECT_EQ(roundtrip(Reply::OkText("metrics")).text, "metrics");
  {
    Reply r = roundtrip(
        Reply::FromStatus(Status::NotFound("no such object")));
    EXPECT_EQ(r.code, StatusCode::kNotFound);
    EXPECT_EQ(r.message, "no such object");
    EXPECT_EQ(r.ToStatus().code(), StatusCode::kNotFound);
  }
}

TEST(ReplyCodecTest, RejectsBadCodeAndKind) {
  std::vector<uint8_t> buf;
  EncodeReply(Reply::Ok(), &buf);
  {
    std::vector<uint8_t> bad = buf;
    bad[0] = 250;  // status code out of range
    EXPECT_FALSE(DecodeReply(bad).ok());
  }
  {
    std::vector<uint8_t> bad = buf;
    bad[bad.size() - 1] = 99;  // value kind out of range
    EXPECT_FALSE(DecodeReply(bad).ok());
  }
}

// --- The in-process dispatcher --------------------------------------

class ApiSessionTest : public ::testing::Test {
 protected:
  void SetUp() override { db_ = Database::Open().value(); }
  std::unique_ptr<Database> db_;
};

TEST_F(ApiSessionTest, BeginWriteCommitThroughCommands) {
  ApiSession session(db_.get());
  Reply begin = session.Execute(Command::Begin());
  ASSERT_TRUE(begin.ok());
  Tid t = begin.u64;
  EXPECT_EQ(session.current(), t);

  Reply create = session.Execute(
      Command::Create(std::vector<uint8_t>{1, 2, 3}));  // kCurrentTxn
  ASSERT_TRUE(create.ok());
  ObjectId oid = create.u64;

  Reply get = session.Execute(Command::Get(oid, t));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(get.bytes, (std::vector<uint8_t>{1, 2, 3}));

  ASSERT_TRUE(session.Execute(Command::Commit()).ok());
  EXPECT_EQ(session.open_txns(), 0u);
  EXPECT_TRUE(db_->IsCommitted(t));
}

TEST_F(ApiSessionTest, CurrentTxnTracksMostRecentBegin) {
  ApiSession session(db_.get());
  Tid t1 = session.Execute(Command::Begin()).u64;
  Tid t2 = session.Execute(Command::Begin()).u64;
  EXPECT_EQ(session.current(), t2);
  ASSERT_TRUE(session.Execute(Command::Commit()).ok());  // commits t2
  EXPECT_TRUE(db_->IsCommitted(t2));
  EXPECT_TRUE(db_->IsActiveTxn(t1));
  // current cleared; explicit tid still works.
  ASSERT_TRUE(session.Execute(Command::Commit(t1)).ok());
}

TEST_F(ApiSessionTest, RefusesForeignAndUnknownTids) {
  ApiSession session(db_.get());
  ApiSession other(db_.get());
  Tid theirs = other.Execute(Command::Begin()).u64;
  Reply r = session.Execute(Command::Commit(theirs));
  EXPECT_EQ(r.code, StatusCode::kNotFound);
  EXPECT_EQ(session.Execute(Command::Get(1)).code,
            StatusCode::kInvalidArgument);  // no current txn
}

TEST_F(ApiSessionTest, EnforcesOpenTxnLimit) {
  ApiSession session(db_.get(), ApiSession::Limits{2, false});
  ASSERT_TRUE(session.Execute(Command::Begin()).ok());
  ASSERT_TRUE(session.Execute(Command::Begin()).ok());
  Reply r = session.Execute(Command::Begin());
  EXPECT_EQ(r.code, StatusCode::kResourceExhausted);
}

TEST_F(ApiSessionTest, RequireHelloGatesEverything) {
  ApiSession session(db_.get(), ApiSession::Limits{64, true});
  EXPECT_EQ(session.Execute(Command::Begin()).code,
            StatusCode::kIllegalState);
  Command bad_magic = Command::Hello();
  bad_magic.magic = 0x12345678;
  EXPECT_EQ(session.Execute(bad_magic).code, StatusCode::kInvalidArgument);
  Command bad_version = Command::Hello();
  bad_version.version = 999;
  EXPECT_EQ(session.Execute(bad_version).code,
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(session.Execute(Command::Hello()).ok());
  EXPECT_TRUE(session.handshaken());
  EXPECT_TRUE(session.Execute(Command::Begin()).ok());
}

TEST_F(ApiSessionTest, DestructionAbortsOpenTransactions) {
  Tid t;
  {
    ApiSession session(db_.get());
    t = session.Execute(Command::Begin()).u64;
    ASSERT_TRUE(db_->IsActiveTxn(t));
  }
  EXPECT_TRUE(db_->IsAborted(t));
}

TEST_F(ApiSessionTest, DelegatePermitDependencyThroughCommands) {
  ApiSession s1(db_.get());
  ApiSession s2(db_.get());
  Tid t1 = s1.Execute(Command::Begin()).u64;
  Tid t2 = s2.Execute(Command::Begin()).u64;

  // t1 creates an object, permits t2 to touch everything of t1's.
  Reply create = s1.Execute(Command::Create(std::vector<uint8_t>{42}));
  ASSERT_TRUE(create.ok());
  ASSERT_TRUE(s1.Execute(Command::Permit(t1, t2)).ok());
  ASSERT_TRUE(
      s2.Execute(Command::Put(create.u64, std::vector<uint8_t>{43}, t2))
          .ok());

  // Commit dependency: t2 cannot commit before t1.
  ASSERT_TRUE(
      s1.Execute(Command::Dependency(DependencyType::kCommit, t1, t2)).ok());
  ASSERT_TRUE(s1.Execute(Command::Commit(t1)).ok());
  ASSERT_TRUE(s2.Execute(Command::Commit(t2)).ok());
}

TEST_F(ApiSessionTest, MetricsAndCheckpointCommands) {
  ApiSession session(db_.get());
  Reply m = session.Execute(Command::Metrics());
  ASSERT_TRUE(m.ok());
  EXPECT_NE(m.text.find("asset_"), std::string::npos);
  EXPECT_NE(m.text.find("# HELP asset_"), std::string::npos);
  EXPECT_TRUE(session.Execute(Command::Checkpoint()).ok());
}

TEST_F(ApiSessionTest, HelloAcceptsOnlyTheCurrentVersion) {
  // Client and server ship from one tree: any other version, older or
  // newer, is refused.
  for (uint16_t v = 0; v <= kProtocolVersion + 1; ++v) {
    ApiSession session(db_.get(), ApiSession::Limits{64, true});
    Command hello = Command::Hello();
    hello.version = v;
    Reply r = session.Execute(hello);
    if (v == kProtocolVersion) {
      ASSERT_TRUE(r.ok()) << r.message;
      EXPECT_EQ(r.i64, kProtocolVersion);  // server declares its own
    } else {
      EXPECT_EQ(r.code, StatusCode::kInvalidArgument) << "version " << v;
    }
  }
}

TEST_F(ApiSessionTest, DumpTraceAndSlowLogCommands) {
  db_->set_trace_enabled(true);
  ApiSession session(db_.get());
  ASSERT_TRUE(session.Execute(Command::Begin()).ok());
  ASSERT_TRUE(session.Execute(Command::Commit()).ok());
  Reply trace = session.Execute(Command::DumpTrace());
  ASSERT_TRUE(trace.ok());
  EXPECT_NE(trace.text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.text.find("txn_commit"), std::string::npos);
  Reply slow = session.Execute(Command::SlowLog());
  ASSERT_TRUE(slow.ok());
  EXPECT_NE(slow.text.find("\"slow_requests\""), std::string::npos);
}

}  // namespace
}  // namespace asset::api
