// Indexed inventory: the Ode layer (catalog + transactional B+-tree)
// combined with the ASSET models — an order-processing saga whose index
// updates commit and compensate with the rest of each step, and
// semantic counters tallying order statistics without write conflicts.
//
// Run: inventory_index

#include <cstdio>

#include "core/database.h"
#include "models/atomic.h"
#include "models/saga.h"
#include "ode/btree.h"
#include "ode/catalog.h"

using asset::Database;
using asset::ObjectId;
using asset::Tid;
using asset::ode::BTree;
using asset::ode::Catalog;

namespace {

struct Item {
  int64_t sku;
  int64_t stock;
  int64_t price;
};

}  // namespace

int main() {
  auto db = Database::Open().value();
  Catalog catalog(db.get());

  // Schema setup: an index over SKUs and a couple of statistics
  // counters, all registered under well-known names.
  asset::models::RunAtomic(*db, [&] {
    Tid self = Database::Self();
    catalog.Bootstrap(self).ok();
    auto tree = BTree::Create(db.get(), self);
    catalog.Bind(self, "sku_index", tree->header_oid()).ok();
    catalog.Bind(self, "orders_placed", db->CreateCounter(0).value()).ok();
    catalog.Bind(self, "revenue_cents", db->CreateCounter(0).value()).ok();
  });

  // Load the inventory.
  asset::models::RunAtomic(*db, [&] {
    Tid self = Database::Self();
    BTree index =
        BTree::Open(db.get(), catalog.Lookup(self, "sku_index").value());
    for (int64_t sku = 1000; sku < 1016; ++sku) {
      Item item{sku, /*stock=*/3, /*price=*/2500 + (sku % 7) * 100};
      ObjectId oid = db->Create(item, self).value();
      index.Insert(self, sku, oid).value();
    }
  });

  // Order processing: each order is a saga — reserve stock, then record
  // revenue; a failure at the second step releases the reservation.
  auto place_order = [&](int64_t sku, bool payment_ok) {
    asset::models::Saga saga;
    saga.AddStep(
        [&, sku] {  // reserve stock (via the index)
          Tid self = Database::Self();
          BTree index =
              BTree::Open(db.get(), catalog.Lookup(self, "sku_index").value());
          auto oid = index.Search(self, sku);
          if (!oid.ok()) {
            db->Abort(self);
            return;
          }
          auto item = db->Get<Item>(*oid, self).value();
          if (item.stock == 0) {
            db->Abort(self);
            return;
          }
          item.stock--;
          db->Put(*oid, item, self).ok();
        },
        [&, sku] {  // compensation: put the unit back
          Tid self = Database::Self();
          BTree index =
              BTree::Open(db.get(), catalog.Lookup(self, "sku_index").value());
          auto oid = index.Search(self, sku).value();
          auto item = db->Get<Item>(oid, self).value();
          item.stock++;
          db->Put(oid, item, self).ok();
        });
    saga.AddStep([&, sku, payment_ok] {  // charge + tally
      Tid self = Database::Self();
      if (!payment_ok) {
        db->Abort(self);
        return;
      }
      BTree index =
          BTree::Open(db.get(), catalog.Lookup(self, "sku_index").value());
      auto oid = index.Search(self, sku).value();
      auto item = db->Get<Item>(oid, self).value();
      // Counters use semantic increments: concurrent orders never
      // conflict on the statistics.
      db->Add(catalog.Lookup(self, "orders_placed").value(), 1, self).ok();
      db->Add(catalog.Lookup(self, "revenue_cents").value(), item.price,
              self)
          .ok();
    });
    return saga.Run(*db).committed;
  };

  int ok_orders = 0, failed_orders = 0;
  for (int i = 0; i < 20; ++i) {
    int64_t sku = 1000 + (i * 5) % 16;
    bool payment_ok = i % 4 != 3;  // every 4th card is declined
    if (place_order(sku, payment_ok)) {
      ok_orders++;
    } else {
      failed_orders++;
    }
  }

  asset::models::RunAtomic(*db, [&] {
    Tid self = Database::Self();
    BTree index =
        BTree::Open(db.get(), catalog.Lookup(self, "sku_index").value());
    std::printf("orders: %d fulfilled, %d failed (compensated)\n", ok_orders,
                failed_orders);
    std::printf("stats : placed=%lld revenue=%lld cents\n",
                (long long)db->GetCounter(
                               catalog.Lookup(self, "orders_placed").value())
                    .value(),
                (long long)db->GetCounter(
                               catalog.Lookup(self, "revenue_cents").value())
                    .value());
    int64_t total_stock = 0;
    // Name the range: a range-for over a temporary's value() would
    // iterate a vector destroyed with the temporary Result.
    const auto entries = index.Range(self, 1000, 1015).value();
    for (const auto& entry : entries) {
      auto item = db->Get<Item>(entry.value, self).value();
      total_stock += item.stock;
    }
    std::printf("stock : %lld units remain (started with 48)\n",
                (long long)total_stock);
    std::printf("check : stock + fulfilled == 48? %s\n",
                total_stock + ok_orders == 48 ? "yes" : "NO");
  });
  return 0;
}
