// Tests for the slotted page: insert/read/update/delete, compaction,
// checksums, and geometry invariants.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/random.h"
#include "storage/page.h"

namespace asset {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

std::string Str(std::span<const uint8_t> b) {
  return std::string(b.begin(), b.end());
}

class PageTest : public ::testing::Test {
 protected:
  PageTest() : page_(buf_) { page_.Init(7); }
  uint8_t buf_[kPageSize] = {};
  Page page_;
};

TEST_F(PageTest, InitProducesValidEmptyPage) {
  EXPECT_EQ(page_.page_id(), 7u);
  EXPECT_EQ(page_.SlotCount(), 0u);
  EXPECT_EQ(page_.GarbageBytes(), 0u);
  EXPECT_TRUE(page_.Validate().ok());
}

TEST_F(PageTest, InsertAndReadRoundTrip) {
  auto rec = Bytes("hello page");
  auto slot = page_.Insert(rec);
  ASSERT_TRUE(slot.ok());
  auto back = page_.Read(*slot);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(Str(*back), "hello page");
}

TEST_F(PageTest, MultipleRecordsKeepDistinctSlots) {
  for (int i = 0; i < 50; ++i) {
    auto slot = page_.Insert(Bytes("rec" + std::to_string(i)));
    ASSERT_TRUE(slot.ok());
    EXPECT_EQ(*slot, i);
  }
  for (int i = 0; i < 50; ++i) {
    auto back = page_.Read(static_cast<SlotId>(i));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(Str(*back), "rec" + std::to_string(i));
  }
}

TEST_F(PageTest, ReadInvalidSlotIsNotFound) {
  EXPECT_TRUE(page_.Read(0).status().IsNotFound());
  page_.Insert(Bytes("x")).value();
  EXPECT_TRUE(page_.Read(1).status().IsNotFound());
}

TEST_F(PageTest, DeleteTombstonesAndTracksGarbage) {
  auto slot = page_.Insert(Bytes("doomed")).value();
  ASSERT_TRUE(page_.Delete(slot).ok());
  EXPECT_FALSE(page_.IsLive(slot));
  EXPECT_EQ(page_.GarbageBytes(), 6u);
  EXPECT_TRUE(page_.Read(slot).status().IsNotFound());
  EXPECT_TRUE(page_.Delete(slot).IsNotFound());  // double delete
}

TEST_F(PageTest, UpdateSameSizeInPlace) {
  auto slot = page_.Insert(Bytes("aaaa")).value();
  ASSERT_TRUE(page_.Update(slot, Bytes("bbbb")).ok());
  EXPECT_EQ(Str(*page_.Read(slot)), "bbbb");
  EXPECT_EQ(page_.GarbageBytes(), 0u);
}

TEST_F(PageTest, UpdateShrinkLeavesGarbage) {
  auto slot = page_.Insert(Bytes("longervalue")).value();
  ASSERT_TRUE(page_.Update(slot, Bytes("tiny")).ok());
  EXPECT_EQ(Str(*page_.Read(slot)), "tiny");
  EXPECT_EQ(page_.GarbageBytes(), 11u - 4u);
}

TEST_F(PageTest, UpdateGrowRelocatesWithinPage) {
  auto s0 = page_.Insert(Bytes("first")).value();
  auto s1 = page_.Insert(Bytes("second")).value();
  ASSERT_TRUE(page_.Update(s0, Bytes("a considerably longer value")).ok());
  EXPECT_EQ(Str(*page_.Read(s0)), "a considerably longer value");
  EXPECT_EQ(Str(*page_.Read(s1)), "second");  // neighbor untouched
}

TEST_F(PageTest, CompactPreservesLiveSlotIds) {
  auto s0 = page_.Insert(Bytes("keep0")).value();
  auto s1 = page_.Insert(Bytes("drop1")).value();
  auto s2 = page_.Insert(Bytes("keep2")).value();
  ASSERT_TRUE(page_.Delete(s1).ok());
  page_.Compact();
  EXPECT_EQ(page_.GarbageBytes(), 0u);
  EXPECT_EQ(Str(*page_.Read(s0)), "keep0");
  EXPECT_EQ(Str(*page_.Read(s2)), "keep2");
  EXPECT_FALSE(page_.IsLive(s1));
}

TEST_F(PageTest, FillUntilFullThenCompactReclaims) {
  std::vector<SlotId> slots;
  std::vector<uint8_t> rec(100, 0xAB);
  for (;;) {
    auto slot = page_.Insert(rec);
    if (!slot.ok()) {
      EXPECT_EQ(slot.status().code(), StatusCode::kResourceExhausted);
      break;
    }
    slots.push_back(*slot);
  }
  EXPECT_GT(slots.size(), 50u);
  // Free every other record; insertion must succeed again via compaction.
  for (size_t i = 0; i < slots.size(); i += 2) {
    ASSERT_TRUE(page_.Delete(slots[i]).ok());
  }
  EXPECT_TRUE(page_.Insert(rec).ok());
}

TEST_F(PageTest, RejectsOversizedRecord) {
  std::vector<uint8_t> huge(kPageSize, 1);
  EXPECT_EQ(page_.Insert(huge).status().code(),
            StatusCode::kInvalidArgument);
  auto slot = page_.Insert(Bytes("ok")).value();
  EXPECT_EQ(page_.Update(slot, huge).code(), StatusCode::kInvalidArgument);
}

TEST_F(PageTest, MaxRecordSizeFitsExactly) {
  std::vector<uint8_t> max(Page::MaxRecordSize(), 7);
  auto slot = page_.Insert(max);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(page_.Read(*slot)->size(), Page::MaxRecordSize());
}

TEST_F(PageTest, ChecksumDetectsCorruption) {
  page_.Insert(Bytes("guarded")).value();
  page_.UpdateChecksum();
  ASSERT_TRUE(page_.Validate().ok());
  buf_[kPageSize / 2] ^= 0xFF;
  EXPECT_EQ(page_.Validate().code(), StatusCode::kCorruption);
}

TEST_F(PageTest, ValidateRejectsZeroPage) {
  std::memset(buf_, 0, kPageSize);
  EXPECT_FALSE(Page(buf_).Validate().ok());
}

TEST_F(PageTest, LsnRoundTrips) {
  page_.set_lsn(12345);
  EXPECT_EQ(page_.lsn(), 12345u);
}

// Randomized workout: interleaved inserts/updates/deletes against a
// shadow map, then full verification.
TEST(PageFuzzTest, ShadowModelAgreesAfterRandomOps) {
  uint8_t buf[kPageSize];
  Page page(buf);
  page.Init(1);
  Random rng(42);
  std::vector<std::pair<SlotId, std::vector<uint8_t>>> shadow;
  for (int step = 0; step < 2000; ++step) {
    int action = static_cast<int>(rng.Uniform(3));
    if (action == 0 || shadow.empty()) {
      std::vector<uint8_t> rec(rng.Range(1, 64));
      for (auto& b : rec) b = static_cast<uint8_t>(rng.Next());
      auto slot = page.Insert(rec);
      if (slot.ok()) shadow.emplace_back(*slot, rec);
    } else if (action == 1) {
      size_t pick = rng.Uniform(shadow.size());
      std::vector<uint8_t> rec(rng.Range(1, 96));
      for (auto& b : rec) b = static_cast<uint8_t>(rng.Next());
      if (page.Update(shadow[pick].first, rec).ok()) {
        shadow[pick].second = rec;
      }
    } else {
      size_t pick = rng.Uniform(shadow.size());
      ASSERT_TRUE(page.Delete(shadow[pick].first).ok());
      shadow.erase(shadow.begin() + pick);
    }
  }
  for (const auto& [slot, expect] : shadow) {
    auto back = page.Read(slot);
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(std::equal(back->begin(), back->end(), expect.begin(),
                           expect.end()));
  }
  page.UpdateChecksum();
  EXPECT_TRUE(page.Validate().ok());
}

}  // namespace
}  // namespace asset
