// Distributed-transaction registry, one instance per site.
//
// In CARAT each coordinator TM knows where its transaction is currently
// operating (there is at most one active request per transaction), and the
// probe algorithm routes messages through the TMs using that knowledge. The
// registry keeps that bookkeeping *per home site*: a transaction's descriptor
// lives only at its home, ids encode the home (gid % num_sites), and anyone
// else must route a message to the home TM to learn the current node --
// which is exactly what the probe protocol does (see probes.h). This keeps
// every registry access site-local.

#ifndef CARAT_TXN_REGISTRY_H_
#define CARAT_TXN_REGISTRY_H_

#include <cassert>
#include <memory>
#include <unordered_map>
#include <vector>

#include "txn/ids.h"

namespace carat::txn {

/// Home-site slice of the transaction registry. Only events executing on
/// this site may touch it.
class SiteRegistry {
 public:
  SiteRegistry(int site, int num_sites) : site_(site), num_sites_(num_sites) {}
  SiteRegistry(const SiteRegistry&) = delete;
  SiteRegistry& operator=(const SiteRegistry&) = delete;

  /// Allocates a fresh global transaction id homed at this site:
  /// gid = seq * num_sites + site, so HomeOf(gid) == gid % num_sites.
  GlobalTxnId NewTxn(model::TxnType user_type) {
    const GlobalTxnId gid =
        next_seq_++ * static_cast<GlobalTxnId>(num_sites_) +
        static_cast<GlobalTxnId>(site_);
    descriptors_.emplace(gid, TxnDescriptor{gid, user_type, site_, site_});
    return gid;
  }

  void EndTxn(GlobalTxnId gid) { descriptors_.erase(gid); }

  const TxnDescriptor* Find(GlobalTxnId gid) const {
    const auto it = descriptors_.find(gid);
    return it == descriptors_.end() ? nullptr : &it->second;
  }

  /// Coordinator bookkeeping: `gid` now operates at `node` (set before the
  /// REMDO hop, reset when the reply returns home).
  void SetCurrentNode(GlobalTxnId gid, int node) {
    const auto it = descriptors_.find(gid);
    if (it != descriptors_.end()) it->second.current_node = node;
  }

  /// Node where `gid` currently operates, or -1 if it finished.
  int CurrentNode(GlobalTxnId gid) const {
    const auto it = descriptors_.find(gid);
    return it == descriptors_.end() ? -1 : it->second.current_node;
  }

  int site() const { return site_; }
  std::size_t active_transactions() const { return descriptors_.size(); }

 private:
  int site_;
  int num_sites_;
  GlobalTxnId next_seq_ = 1;
  std::unordered_map<GlobalTxnId, TxnDescriptor> descriptors_;
};

/// The per-site registries plus the id -> home mapping.
class TxnRegistrySet {
 public:
  explicit TxnRegistrySet(int num_sites) : num_sites_(num_sites) {
    sites_.reserve(static_cast<std::size_t>(num_sites));
    for (int s = 0; s < num_sites; ++s) {
      sites_.push_back(std::make_unique<SiteRegistry>(s, num_sites));
    }
  }

  int num_sites() const { return num_sites_; }
  int HomeOf(GlobalTxnId gid) const {
    return static_cast<int>(gid % static_cast<GlobalTxnId>(num_sites_));
  }
  SiteRegistry& at(int site) { return *sites_[static_cast<std::size_t>(site)]; }
  const SiteRegistry& at(int site) const {
    return *sites_[static_cast<std::size_t>(site)];
  }

  /// Sum over sites; not safe during RunUntil.
  std::size_t active_transactions() const {
    std::size_t total = 0;
    for (const auto& reg : sites_) total += reg->active_transactions();
    return total;
  }

 private:
  int num_sites_;
  std::vector<std::unique_ptr<SiteRegistry>> sites_;
};

}  // namespace carat::txn

#endif  // CARAT_TXN_REGISTRY_H_
