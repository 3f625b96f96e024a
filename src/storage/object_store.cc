#include "storage/object_store.h"

#include <cstring>

namespace asset {

namespace {

constexpr size_t kRecordHeader = sizeof(ObjectId);

ObjectId RecordOid(std::span<const uint8_t> record) {
  ObjectId oid;
  std::memcpy(&oid, record.data(), sizeof(oid));
  return oid;
}

}  // namespace

std::vector<uint8_t> ObjectStore::MakeRecord(ObjectId oid,
                                             std::span<const uint8_t> data) {
  std::vector<uint8_t> rec(kRecordHeader + data.size());
  std::memcpy(rec.data(), &oid, sizeof(oid));
  // An empty value may carry a null data(), which memcpy must not see.
  if (!data.empty()) {
    std::memcpy(rec.data() + kRecordHeader, data.data(), data.size());
  }
  return rec;
}

Status ObjectStore::Open() {
  std::unique_lock<std::shared_mutex> g(mu_);
  directory_.clear();
  next_oid_ = kFirstUserObjectId;
  last_insert_page_ = kInvalidPageId;
  // The store owns the device: every page is one of ours.
  // NumPages() can race with concurrent allocation in principle, but Open
  // runs before the store is shared.
  PageId n = 0;
  {
    // Probe device size via the pool's disk; fetching a page past the end
    // returns NotFound, so scan until that happens using sequential ids.
    for (PageId pid = 0;; ++pid) {
      auto h = pool_->FetchPage(pid, /*validate=*/false);
      if (!h.ok()) {
        if (h.status().IsNotFound()) break;
        return h.status();
      }
      n = pid + 1;
      Page p = h->page();
      if (!p.Validate().ok()) {
        // A page allocated but never flushed before a crash reads back as
        // all zeros; its contents were never durable, so reformat it as
        // empty. Anything else is genuine corruption.
        const uint8_t* raw = p.raw();
        bool all_zero = true;
        for (size_t i = 0; i < kPageSize; ++i) {
          if (raw[i] != 0) {
            all_zero = false;
            break;
          }
        }
        if (!all_zero) {
          return Status::Corruption("page " + std::to_string(pid) +
                                    " fails validation");
        }
        p.Init(pid);
        h->MarkDirty();
        continue;
      }
      for (SlotId s = 0; s < p.SlotCount(); ++s) {
        auto rec = p.Read(s);
        if (!rec.ok()) continue;  // tombstone
        if (rec->size() < kRecordHeader) {
          return Status::Corruption("object record shorter than header");
        }
        ObjectId oid = RecordOid(*rec);
        directory_[oid] = Located{RecordId{pid, s}};
        if (oid >= next_oid_) next_oid_ = oid + 1;
      }
    }
  }
  (void)n;
  return Status::OK();
}

Result<PageHandle> ObjectStore::FindPageWithRoomLocked(size_t bytes) {
  if (last_insert_page_ != kInvalidPageId) {
    auto h = pool_->FetchPage(last_insert_page_);
    if (h.ok() && h->page().HasRoomFor(bytes)) return h;
  }
  auto fresh = pool_->NewPage();
  if (!fresh.ok()) return fresh.status();
  last_insert_page_ = fresh->page_id();
  return fresh;
}

Status ObjectStore::CreateLocked(ObjectId oid,
                                 std::span<const uint8_t> data) {
  std::vector<uint8_t> rec = MakeRecord(oid, data);
  if (rec.size() > Page::MaxRecordSize()) {
    return Status::InvalidArgument("object larger than page capacity");
  }
  auto h = FindPageWithRoomLocked(rec.size());
  if (!h.ok()) return h.status();
  Page p = h->page();
  auto slot = p.Insert(rec);
  if (!slot.ok()) return slot.status();
  h->MarkDirty();
  directory_[oid] = Located{RecordId{h->page_id(), *slot}};
  if (oid >= next_oid_) next_oid_ = oid + 1;
  return Status::OK();
}

Result<ObjectId> ObjectStore::Create(std::span<const uint8_t> data) {
  std::unique_lock<std::shared_mutex> g(mu_);
  ObjectId oid = next_oid_++;
  Status s = CreateLocked(oid, data);
  if (!s.ok()) return s;
  return oid;
}

ObjectId ObjectStore::AllocateId() {
  std::unique_lock<std::shared_mutex> g(mu_);
  return next_oid_++;
}

size_t ObjectStore::MaxObjectSize() {
  return Page::MaxRecordSize() - kRecordHeader;
}

Status ObjectStore::CreateWithId(ObjectId oid,
                                 std::span<const uint8_t> data) {
  if (oid == kNullObjectId) {
    return Status::InvalidArgument("null object id");
  }
  std::unique_lock<std::shared_mutex> g(mu_);
  if (directory_.count(oid) != 0) {
    return Status::IllegalState("object " + std::to_string(oid) +
                                " already exists");
  }
  return CreateLocked(oid, data);
}

Result<std::vector<uint8_t>> ObjectStore::Read(ObjectId oid) const {
  std::shared_lock<std::shared_mutex> g(mu_);
  auto it = directory_.find(oid);
  if (it == directory_.end()) {
    return Status::NotFound("object " + std::to_string(oid));
  }
  auto h = pool_->FetchPage(it->second.rid.page_id);
  if (!h.ok()) return h.status();
  auto rec = h->page().Read(it->second.rid.slot_id);
  if (!rec.ok()) return rec.status();
  return std::vector<uint8_t>(rec->begin() + kRecordHeader, rec->end());
}

Status ObjectStore::WriteLocked(ObjectId oid,
                                std::span<const uint8_t> data) {
  auto it = directory_.find(oid);
  if (it == directory_.end()) {
    return Status::NotFound("object " + std::to_string(oid));
  }
  std::vector<uint8_t> rec = MakeRecord(oid, data);
  if (rec.size() > Page::MaxRecordSize()) {
    return Status::InvalidArgument("object larger than page capacity");
  }
  auto h = pool_->FetchPage(it->second.rid.page_id);
  if (!h.ok()) return h.status();
  Status s = h->page().Update(it->second.rid.slot_id, rec);
  if (s.ok()) {
    h->MarkDirty();
    return Status::OK();
  }
  if (s.code() != StatusCode::kResourceExhausted) return s;
  // The grown object no longer fits on its page: move it.
  ASSET_RETURN_NOT_OK(h->page().Delete(it->second.rid.slot_id));
  h->MarkDirty();
  h->Release();
  directory_.erase(it);
  return CreateLocked(oid, data);
}

Status ObjectStore::Write(ObjectId oid, std::span<const uint8_t> data) {
  std::unique_lock<std::shared_mutex> g(mu_);
  return WriteLocked(oid, data);
}

Status ObjectStore::DeleteLocked(ObjectId oid) {
  auto it = directory_.find(oid);
  if (it == directory_.end()) {
    return Status::NotFound("object " + std::to_string(oid));
  }
  auto h = pool_->FetchPage(it->second.rid.page_id);
  if (!h.ok()) return h.status();
  ASSET_RETURN_NOT_OK(h->page().Delete(it->second.rid.slot_id));
  h->MarkDirty();
  directory_.erase(it);
  return Status::OK();
}

Status ObjectStore::Delete(ObjectId oid) {
  std::unique_lock<std::shared_mutex> g(mu_);
  return DeleteLocked(oid);
}

bool ObjectStore::Exists(ObjectId oid) const {
  std::shared_lock<std::shared_mutex> g(mu_);
  return directory_.count(oid) != 0;
}

size_t ObjectStore::NumObjects() const {
  std::shared_lock<std::shared_mutex> g(mu_);
  return directory_.size();
}

std::vector<ObjectId> ObjectStore::ListObjects() const {
  std::shared_lock<std::shared_mutex> g(mu_);
  std::vector<ObjectId> out;
  out.reserve(directory_.size());
  for (const auto& [oid, _] : directory_) out.push_back(oid);
  return out;
}

Status ObjectStore::ApplyPut(ObjectId oid, std::span<const uint8_t> data) {
  std::unique_lock<std::shared_mutex> g(mu_);
  if (directory_.count(oid) != 0) {
    return WriteLocked(oid, data);
  }
  return CreateLocked(oid, data);
}

Status ObjectStore::ApplyDelete(ObjectId oid) {
  std::unique_lock<std::shared_mutex> g(mu_);
  if (directory_.count(oid) == 0) return Status::OK();
  return DeleteLocked(oid);
}

// ---------------------------------------------------------------------------
// Counters

namespace {

constexpr size_t kCounterBytes = sizeof(Lsn) + sizeof(int64_t);

struct CounterImage {
  Lsn applied_lsn;
  int64_t value;
};

Result<CounterImage> DecodeCounter(std::span<const uint8_t> bytes) {
  if (bytes.size() != kCounterBytes) {
    return Status::InvalidArgument("object is not counter-shaped");
  }
  CounterImage img;
  std::memcpy(&img.applied_lsn, bytes.data(), sizeof(Lsn));
  std::memcpy(&img.value, bytes.data() + sizeof(Lsn), sizeof(int64_t));
  return img;
}

}  // namespace

std::vector<uint8_t> ObjectStore::EncodeCounter(Lsn applied_lsn,
                                                int64_t value) {
  std::vector<uint8_t> out(kCounterBytes);
  std::memcpy(out.data(), &applied_lsn, sizeof(Lsn));
  std::memcpy(out.data() + sizeof(Lsn), &value, sizeof(int64_t));
  return out;
}

Result<int64_t> ObjectStore::ReadCounter(ObjectId oid) const {
  auto bytes = Read(oid);
  if (!bytes.ok()) return bytes.status();
  auto img = DecodeCounter(*bytes);
  if (!img.ok()) return img.status();
  return img->value;
}

Result<int64_t> ObjectStore::ApplyDelta(ObjectId oid, Lsn lsn,
                                        int64_t delta) {
  std::unique_lock<std::shared_mutex> g(mu_);
  auto it = directory_.find(oid);
  if (it == directory_.end()) {
    return Status::NotFound("counter " + std::to_string(oid));
  }
  auto h = pool_->FetchPage(it->second.rid.page_id);
  if (!h.ok()) return h.status();
  auto rec = h->page().Read(it->second.rid.slot_id);
  if (!rec.ok()) return rec.status();
  auto img = DecodeCounter(rec->subspan(sizeof(ObjectId)));
  if (!img.ok()) return img.status();
  if (lsn > img->applied_lsn) {
    img->value += delta;
    img->applied_lsn = lsn;
    std::vector<uint8_t> updated =
        MakeRecord(oid, EncodeCounter(img->applied_lsn, img->value));
    ASSET_RETURN_NOT_OK(h->page().Update(it->second.rid.slot_id, updated));
    h->MarkDirty();
  }
  return img->value;
}

}  // namespace asset
