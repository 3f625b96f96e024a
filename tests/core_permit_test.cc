// Tests for the permit table: direct permits, wildcard grantees,
// transitive closure (eager materialization vs an on-demand oracle),
// delegation redirect, and removal.

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "common/random.h"
#include "core/permit_table.h"

namespace asset {
namespace {

constexpr Operation kR = Operation::kRead;
constexpr Operation kW = Operation::kWrite;

TEST(PermitTableTest, DirectPermitMatches) {
  PermitTable pt;
  ASSERT_TRUE(pt.Insert(1, 2, ObjectSet{10}, OpSet(kW)).ok());
  EXPECT_TRUE(pt.Permits(1, 2, 10, kW));
  EXPECT_FALSE(pt.Permits(1, 2, 10, kR));
  EXPECT_FALSE(pt.Permits(1, 2, 11, kW));
  EXPECT_FALSE(pt.Permits(2, 1, 10, kW));  // not symmetric
  EXPECT_FALSE(pt.Permits(1, 3, 10, kW));  // wrong grantee
}

TEST(PermitTableTest, WildcardGranteePermitsEveryone) {
  PermitTable pt;
  ASSERT_TRUE(pt.Insert(1, kNullTid, ObjectSet{10}, OpSet(kW)).ok());
  EXPECT_TRUE(pt.Permits(1, 2, 10, kW));
  EXPECT_TRUE(pt.Permits(1, 99, 10, kW));
  EXPECT_FALSE(pt.Permits(1, 2, 11, kW));
}

TEST(PermitTableTest, AllOpsPermit) {
  PermitTable pt;
  ASSERT_TRUE(pt.Insert(1, 2, ObjectSet{10}, OpSet::All()).ok());
  EXPECT_TRUE(pt.Permits(1, 2, 10, kR));
  EXPECT_TRUE(pt.Permits(1, 2, 10, kW));
}

TEST(PermitTableTest, VacuousPermitsDropped) {
  PermitTable pt;
  ASSERT_TRUE(pt.Insert(1, 1, ObjectSet{10}, OpSet::All()).ok());  // self
  ASSERT_TRUE(pt.Insert(1, 2, ObjectSet(), OpSet::All()).ok());    // no obj
  ASSERT_TRUE(pt.Insert(1, 2, ObjectSet{10}, OpSet::None()).ok()); // no op
  EXPECT_EQ(pt.size(), 0u);
}

TEST(PermitTableTest, WildcardObjectsRejectedUnexpanded) {
  PermitTable pt;
  EXPECT_EQ(pt.Insert(1, 2, ObjectSet::All(), OpSet::All()).code(),
            StatusCode::kInvalidArgument);
}

TEST(PermitTableTest, TransitiveChainDerivesIntersection) {
  PermitTable pt;
  // permit(1,2,{10,11},{r,w}) ∘ permit(2,3,{11,12},{w}) ⇒
  // permit(1,3,{11},{w}).
  ASSERT_TRUE(pt.Insert(1, 2, ObjectSet{10, 11}, OpSet::All()).ok());
  ASSERT_TRUE(pt.Insert(2, 3, ObjectSet{11, 12}, OpSet(kW)).ok());
  EXPECT_TRUE(pt.Permits(1, 3, 11, kW));
  EXPECT_FALSE(pt.Permits(1, 3, 11, kR));
  EXPECT_FALSE(pt.Permits(1, 3, 10, kW));
  EXPECT_FALSE(pt.Permits(1, 3, 12, kW));  // 12 not in 1's grant
}

TEST(PermitTableTest, TransitivityWorksInBothInsertionOrders) {
  // Insert the second edge first: closure must chain when the first
  // edge arrives.
  PermitTable pt;
  ASSERT_TRUE(pt.Insert(2, 3, ObjectSet{10}, OpSet(kW)).ok());
  ASSERT_TRUE(pt.Insert(1, 2, ObjectSet{10}, OpSet(kW)).ok());
  EXPECT_TRUE(pt.Permits(1, 3, 10, kW));
}

TEST(PermitTableTest, LongChainCloses) {
  PermitTable pt;
  for (Tid t = 1; t <= 10; ++t) {
    ASSERT_TRUE(pt.Insert(t, t + 1, ObjectSet{10}, OpSet(kW)).ok());
  }
  EXPECT_TRUE(pt.Permits(1, 11, 10, kW));
  EXPECT_TRUE(pt.Permits(3, 8, 10, kW));
  EXPECT_FALSE(pt.Permits(11, 1, 10, kW));
}

TEST(PermitTableTest, CyclicPermitsTerminate) {
  PermitTable pt;
  ASSERT_TRUE(pt.Insert(1, 2, ObjectSet{10}, OpSet::All()).ok());
  ASSERT_TRUE(pt.Insert(2, 1, ObjectSet{10}, OpSet::All()).ok());
  EXPECT_TRUE(pt.Permits(1, 2, 10, kW));
  EXPECT_TRUE(pt.Permits(2, 1, 10, kW));
}

TEST(PermitTableTest, SubsumedInsertAddsNothing) {
  PermitTable pt;
  ASSERT_TRUE(pt.Insert(1, 2, ObjectSet{10, 11}, OpSet::All()).ok());
  size_t n = pt.size();
  ASSERT_TRUE(pt.Insert(1, 2, ObjectSet{10}, OpSet(kR)).ok());
  EXPECT_EQ(pt.size(), n);
}

TEST(PermitTableTest, RemoveAllForStripsBothDirections) {
  PermitTable pt;
  ASSERT_TRUE(pt.Insert(1, 2, ObjectSet{10}, OpSet::All()).ok());
  ASSERT_TRUE(pt.Insert(3, 1, ObjectSet{10}, OpSet::All()).ok());
  ASSERT_TRUE(pt.Insert(3, 4, ObjectSet{10}, OpSet::All()).ok());
  pt.RemoveAllFor(1);
  EXPECT_FALSE(pt.Permits(1, 2, 10, kW));
  EXPECT_FALSE(pt.Permits(3, 1, 10, kW));
  EXPECT_TRUE(pt.Permits(3, 4, 10, kW));
}

TEST(PermitTableTest, RedirectGrantorMovesWholePermit) {
  PermitTable pt;
  ASSERT_TRUE(pt.Insert(1, 3, ObjectSet{10}, OpSet(kW)).ok());
  pt.RedirectGrantor(1, 2, ObjectSet::All());
  EXPECT_FALSE(pt.Permits(1, 3, 10, kW));
  EXPECT_TRUE(pt.Permits(2, 3, 10, kW));
}

TEST(PermitTableTest, RedirectGrantorSplitsOnObjectSet) {
  PermitTable pt;
  ASSERT_TRUE(pt.Insert(1, 3, ObjectSet{10, 11}, OpSet(kW)).ok());
  pt.RedirectGrantor(1, 2, ObjectSet{10});
  EXPECT_TRUE(pt.Permits(2, 3, 10, kW));   // moved
  EXPECT_FALSE(pt.Permits(2, 3, 11, kW));
  EXPECT_TRUE(pt.Permits(1, 3, 11, kW));   // stayed
  EXPECT_FALSE(pt.Permits(1, 3, 10, kW));
}

TEST(PermitTableTest, RedirectDropsSelfPermits) {
  PermitTable pt;
  // 1 permits 2; delegation of 1's work to 2 makes it a self-permit.
  ASSERT_TRUE(pt.Insert(1, 2, ObjectSet{10}, OpSet(kW)).ok());
  pt.RedirectGrantor(1, 2, ObjectSet::All());
  EXPECT_EQ(pt.size(), 0u);
}

TEST(PermitTableTest, GivenByAndGivenTo) {
  PermitTable pt;
  ASSERT_TRUE(pt.Insert(1, 2, ObjectSet{10}, OpSet(kW)).ok());
  ASSERT_TRUE(pt.Insert(3, 2, ObjectSet{11}, OpSet(kR)).ok());
  EXPECT_EQ(pt.GivenBy(1).size(), 1u);
  EXPECT_EQ(pt.GivenTo(2).size(), 2u);
  EXPECT_TRUE(pt.GivenBy(2).empty());
}

TEST(PermitTableTest, ObjectsPermittedToIncludesWildcardGrants) {
  PermitTable pt;
  ASSERT_TRUE(pt.Insert(1, 2, ObjectSet{10}, OpSet(kW)).ok());
  ASSERT_TRUE(pt.Insert(3, kNullTid, ObjectSet{11}, OpSet(kW)).ok());
  ObjectSet objs = pt.ObjectsPermittedTo(2);
  EXPECT_TRUE(objs.Contains(10));
  EXPECT_TRUE(objs.Contains(11));
  EXPECT_FALSE(objs.Contains(12));
}

TEST(PermitTableTest, DirectSizeExcludesDerived) {
  PermitTable pt;
  ASSERT_TRUE(pt.Insert(1, 2, ObjectSet{10}, OpSet::All()).ok());
  ASSERT_TRUE(pt.Insert(2, 3, ObjectSet{10}, OpSet::All()).ok());
  EXPECT_EQ(pt.direct_size(), 2u);
  EXPECT_GE(pt.size(), 3u);  // the derived (1,3) permit
}

// Property test: eager materialization must agree with an on-demand
// closure oracle over random permit graphs.
struct ClosureCase {
  uint64_t seed;
  int txns;
  int objects;
  int inserts;
};

/// Names each case by its fields (a struct parameter would otherwise be
/// printed as raw bytes, padding included).
std::string ClosureCaseName(
    const ::testing::TestParamInfo<ClosureCase>& info) {
  const ClosureCase& c = info.param;
  return "seed" + std::to_string(c.seed) + "_txns" + std::to_string(c.txns) +
         "_objs" + std::to_string(c.objects) + "_inserts" +
         std::to_string(c.inserts);
}

class PermitClosureProperty : public ::testing::TestWithParam<ClosureCase> {};

// Oracle: BFS over direct permits only, intersecting scopes along the
// way, wildcard grantee treated as matching any next hop's grantor.
bool OraclePermits(const std::vector<Permit>& direct, Tid grantor,
                   Tid grantee, ObjectId ob, Operation op) {
  // State: set of (current grantee, reachable?) with accumulated scope
  // narrowed along each path; since scopes only narrow, track paths via
  // DFS with explicit scope.
  struct Node {
    Tid at;
    bool scope_ok;
  };
  // DFS with memo on (edge index path) is overkill: enumerate paths up
  // to depth = #direct permits using recursion.
  std::function<bool(Tid, ObjectId, Operation, std::vector<bool>&)> dfs =
      [&](Tid from, ObjectId o, Operation p, std::vector<bool>& used) {
        for (size_t i = 0; i < direct.size(); ++i) {
          if (used[i]) continue;
          const Permit& e = direct[i];
          if (e.grantor != from) continue;
          if (!e.objects.Contains(o) || !e.ops.Contains(p)) continue;
          if (e.grantee == kNullTid || e.grantee == grantee) return true;
          used[i] = true;
          if (dfs(e.grantee, o, p, used)) return true;
          used[i] = false;
        }
        return false;
      };
  std::vector<bool> used(direct.size(), false);
  return dfs(grantor, ob, op, used);
}

TEST_P(PermitClosureProperty, EagerEqualsOracle) {
  const ClosureCase& c = GetParam();
  Random rng(c.seed);
  PermitTable pt;
  std::vector<Permit> direct;
  for (int i = 0; i < c.inserts; ++i) {
    Tid a = rng.Range(1, c.txns);
    Tid b = rng.Bernoulli(0.1) ? kNullTid : rng.Range(1, c.txns);
    if (a == b) continue;
    std::vector<ObjectId> ids;
    int n = static_cast<int>(rng.Range(1, 3));
    for (int k = 0; k < n; ++k) ids.push_back(rng.Range(1, c.objects));
    OpSet ops = rng.Bernoulli(0.3)   ? OpSet::All()
                : rng.Bernoulli(0.5) ? OpSet(kR)
                                     : OpSet(kW);
    ObjectSet objs(ids);
    ASSERT_TRUE(pt.Insert(a, b, objs, ops).ok());
    direct.push_back(Permit{a, b, objs, ops, true});
  }
  // Compare on every (grantor, grantee, object, op) triple.
  for (Tid g = 1; g <= static_cast<Tid>(c.txns); ++g) {
    for (Tid e = 1; e <= static_cast<Tid>(c.txns); ++e) {
      if (g == e) continue;
      for (ObjectId o = 1; o <= static_cast<ObjectId>(c.objects); ++o) {
        for (Operation op : {kR, kW}) {
          EXPECT_EQ(pt.Permits(g, e, o, op),
                    OraclePermits(direct, g, e, o, op))
              << "grantor=" << g << " grantee=" << e << " ob=" << o
              << " op=" << static_cast<int>(op);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, PermitClosureProperty,
    ::testing::Values(ClosureCase{1, 4, 4, 6}, ClosureCase{2, 5, 3, 10},
                      ClosureCase{3, 3, 5, 8}, ClosureCase{4, 6, 4, 12},
                      ClosureCase{5, 4, 2, 15}, ClosureCase{6, 8, 6, 20},
                      ClosureCase{7, 5, 5, 25}, ClosureCase{8, 6, 3, 18}),
    ClosureCaseName);

}  // namespace
}  // namespace asset
