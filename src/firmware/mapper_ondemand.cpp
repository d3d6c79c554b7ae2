#include "firmware/mapper_ondemand.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "sim/rng.hpp"

namespace sanfault::firmware {

using net::HostId;
using net::Packet;
using net::PacketType;
using net::Route;

namespace {

/// Outcome of one probe (after retries).
struct ProbeResult {
  bool replied = false;
  HostId replier;
};

/// Alternates recorded per known switch are capped: candidate sets past this
/// add no measurable path diversity but do add per-mapping memory.
constexpr std::size_t kMaxAltForwards = 8;

/// Extra salt stirred into the backup-path tie-breaker so the backup pick is
/// a different deterministic stream than the primary multipath pick (a backup
/// that mirrors the multipath choice would not be an alternate at all).
constexpr std::uint64_t kBackupSaltTweak = 0xA17EB5A17Eull;

}  // namespace

// --- PathCache (LRU) --------------------------------------------------------

const Route* OnDemandMapper::PathCache::get(HostId h) {
  auto it = idx_.find(h);
  if (it == idx_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // touch: move to front
  return &it->second->primary;
}

void OnDemandMapper::PathCache::put(HostId h, Route r,
                                    std::uint64_t* evictions) {
  if (cap_ == 0) return;
  auto it = idx_.find(h);
  if (it != idx_.end()) {
    Entry& e = *it->second;
    if (e.primary != r) e.backup.reset();  // backup was disjoint from the old
    e.primary = std::move(r);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= cap_) {
    idx_.erase(lru_.back().host);
    lru_.pop_back();
    if (evictions != nullptr) ++*evictions;
  }
  lru_.emplace_front(Entry{h, std::move(r), std::nullopt});
  idx_[h] = lru_.begin();
}

bool OnDemandMapper::PathCache::erase(HostId h) {
  auto it = idx_.find(h);
  if (it == idx_.end()) return false;
  lru_.erase(it->second);
  idx_.erase(it);
  return true;
}

void OnDemandMapper::PathCache::clear() {
  lru_.clear();
  idx_.clear();
}

void OnDemandMapper::PathCache::set_backup(HostId h, net::AltRoute alt) {
  auto it = idx_.find(h);
  if (it == idx_.end()) return;
  it->second->backup = std::move(alt);
}

bool OnDemandMapper::PathCache::promote(HostId h) {
  auto it = idx_.find(h);
  if (it == idx_.end() || !it->second->backup) return false;
  Entry& e = *it->second;
  e.primary = std::move(e.backup->route);
  e.backup.reset();
  lru_.splice(lru_.begin(), lru_, it->second);  // a promotion is a use
  return true;
}

const Route* OnDemandMapper::PathCache::peek(HostId h) const {
  auto it = idx_.find(h);
  return it == idx_.end() ? nullptr : &it->second->primary;
}

const std::optional<net::AltRoute>* OnDemandMapper::PathCache::peek_backup(
    HostId h) const {
  auto it = idx_.find(h);
  return it == idx_.end() ? nullptr : &it->second->backup;
}

std::vector<HostId> OnDemandMapper::PathCache::hosts() const {
  std::vector<HostId> out;
  out.reserve(lru_.size());
  for (const Entry& e : lru_) out.push_back(e.host);
  return out;
}

Route* OnDemandMapper::PathCache::primary_mut(HostId h) {
  auto it = idx_.find(h);
  return it == idx_.end() ? nullptr : &it->second->primary;
}

std::optional<net::AltRoute>* OnDemandMapper::PathCache::backup_mut(HostId h) {
  auto it = idx_.find(h);
  return it == idx_.end() ? nullptr : &it->second->backup;
}

// --- OnDemandMapper ---------------------------------------------------------

OnDemandMapper::OnDemandMapper(nic::Nic& nic, const net::Topology& topo,
                               OnDemandMapperConfig cfg)
    : nic_(nic), topo_(topo), cfg_(cfg), path_cache_(cfg.path_cache_capacity) {
  if (longest_probe_route(cfg_.max_depth) > net::PortList::kCapacity) {
    throw std::invalid_argument(
        "OnDemandMapper: max_depth " + std::to_string(cfg_.max_depth) +
        " sends probe routes of " +
        std::to_string(longest_probe_route(cfg_.max_depth)) +
        " bytes; a route holds at most " +
        std::to_string(net::PortList::kCapacity));
  }
  // Mirror OnDemandMapperStats into the per-simulation metrics registry
  // (pull model — see docs/OBSERVABILITY.md).
  obs::Registry& reg = obs::Registry::of(nic_.sched());
  const std::string node = "{node=" + std::to_string(nic_.self().v) + "}";
  reg.add_collector(this, [this, &reg, node] {
    const OnDemandMapperStats& s = stats_;
    reg.counter("mapper.mappings_started" + node, "mappings")
        .set(s.mappings_started);
    reg.counter("mapper.mappings_succeeded" + node, "mappings")
        .set(s.mappings_succeeded);
    reg.counter("mapper.mappings_failed" + node, "mappings")
        .set(s.mappings_failed);
    reg.counter("mapper.host_probes_tx" + node, "probes")
        .set(s.host_probes_tx);
    reg.counter("mapper.switch_probes_tx" + node, "probes")
        .set(s.switch_probes_tx);
    reg.counter("mapper.probe_replies_tx" + node, "probes")
        .set(s.probe_replies_tx);
    reg.counter("mapper.probe_replies_rx" + node, "probes")
        .set(s.probe_replies_rx);
    reg.counter("mapper.probe_timeouts" + node, "probes")
        .set(s.probe_timeouts);
    reg.counter("mapper.mapping_time_total_ns" + node, "ns")
        .set(static_cast<std::uint64_t>(s.mapping_time_total));
    reg.counter("mapper.path_cache_hits" + node, "hits")
        .set(s.path_cache_hits);
    reg.counter("mapper.path_cache_evictions" + node, "evictions")
        .set(s.path_cache_evictions);
    reg.counter("mapper.path_cache_invalidations" + node, "invalidations")
        .set(s.path_cache_invalidations);
    reg.counter("mapper.probe_budget_exhausted" + node, "mappings")
        .set(s.probe_budget_exhausted);
    reg.counter("mapper.multipath_candidates" + node, "routes")
        .set(s.multipath_candidates);
    reg.counter("mapper.backup_computed" + node, "backups")
        .set(s.backup_computed);
    reg.counter("mapper.backup_promotions" + node, "promotions")
        .set(s.backup_promotions);
    reg.counter("mapper.backup_stale_rejections" + node, "rejections")
        .set(s.backup_stale_rejections);
    reg.counter("mapper.backup_replenish_probes" + node, "probes")
        .set(s.backup_replenish_probes);
    reg.counter("mapper.backup_node_disjoint" + node, "backups")
        .set(s.backup_node_disjoint);
    reg.counter("mapper.backup_link_disjoint" + node, "backups")
        .set(s.backup_link_disjoint);
    reg.counter("mapper.backup_overlapping" + node, "backups")
        .set(s.backup_overlapping);
  });
}

OnDemandMapper::~OnDemandMapper() {
  if (auto* r = obs::Registry::find(nic_.sched())) r->remove_collectors(this);
}

std::uint8_t OnDemandMapper::radix_of(
    const std::optional<net::Device>& dev) const {
  if (dev && dev->is_switch()) return topo_.switch_ports(dev->as_switch());
  return cfg_.max_ports;
}

void OnDemandMapper::invalidate_path(HostId dst) {
  if (path_cache_.erase(dst)) ++stats_.path_cache_invalidations;
}

bool OnDemandMapper::on_path_failure(HostId dst) {
  // Proactive alternate paths: a live backup replaces the dead primary in
  // place, and the request_route that follows is a cache hit — the probe
  // storm moves off the failover critical path (docs/ROUTING.md).
  const bool promoted = promote_backup(dst);
  if (promoted) {
    ++stats_.path_cache_invalidations;  // the failed primary is gone either way
  } else {
    invalidate_path(dst);
  }
  // A mapping already running for dst raced the failure report. Let it
  // finish (its callbacks may still want the answer) but poison its result:
  // caching it would re-install a route discovered before — possibly over —
  // the path that just died, which a later report would then invalidate a
  // second time (double-counted invalidations for one failure). When the
  // failure was served by a promotion, the promoted entry must additionally
  // win over the stale BFS result (drive() serves it to the callbacks).
  if (active_dst_ && *active_dst_ == dst) {
    active_invalidated_ = true;
    active_promoted_ = promoted;
  }
  return promoted;
}

void OnDemandMapper::on_peer_dead(HostId dst) {
  // Membership declared the node itself dead: a backup route to a corpse is
  // as dead as the primary, so both slots drop unconditionally — never
  // promote here.
  invalidate_path(dst);
  if (active_dst_ && *active_dst_ == dst) active_invalidated_ = true;
}

void OnDemandMapper::flush_cache() {
  attach_port_.reset();
  path_cache_.clear();
}

void OnDemandMapper::seed_cache(HostId dst, const Route& r) {
  if (cfg_.path_cache_capacity == 0) return;
  path_cache_.put(dst, r, &stats_.path_cache_evictions);
  fill_backup(dst);
}

std::uint64_t OnDemandMapper::backup_salt(HostId dst) const {
  return cfg_.multipath_salt ^ kBackupSaltTweak ^
         (0x9E3779B97F4A7C15ull * (nic_.self().v + 1)) ^
         (0xC2B2AE3D27D4EB4Full * (dst.v + 1));
}

void OnDemandMapper::fill_backup(HostId dst) {
  if (!cfg_.proactive_backup) return;
  const Route* primary = path_cache_.peek(dst);
  if (primary == nullptr) return;
  const std::optional<net::AltRoute>* slot = path_cache_.peek_backup(dst);
  if (slot != nullptr && slot->has_value()) return;  // already provisioned
  auto alt =
      topo_.disjoint_route(nic_.self(), dst, *primary, backup_salt(dst));
  // Disjointness can be impossible (both hosts on one crossbar, or a chain
  // fabric with no way around): degrade gracefully to a backup-less entry —
  // failures for this destination fall back to probing.
  if (alt) install_backup(dst, std::move(*alt));
}

void OnDemandMapper::install_backup(HostId dst, net::AltRoute alt) {
  switch (alt.cls) {
    case net::DisjointClass::kNodeDisjoint:
      ++stats_.backup_node_disjoint;
      break;
    case net::DisjointClass::kLinkDisjoint:
      ++stats_.backup_link_disjoint;
      break;
    case net::DisjointClass::kOverlapping:
      ++stats_.backup_overlapping;
      break;
  }
  ++stats_.backup_computed;
  path_cache_.set_backup(dst, std::move(alt));
}

bool OnDemandMapper::promote_backup(HostId dst) {
  if (!cfg_.proactive_backup) return false;
  const std::optional<net::AltRoute>* slot = path_cache_.peek_backup(dst);
  if (slot == nullptr || !slot->has_value()) return false;
  const Route backup = (*slot)->route;
  // The fault that killed the primary may have hit the backup too (or the
  // backup aged past an unrelated fault). Validate it end-to-end against
  // current up-state before trusting it — never deliver over a wrong route.
  auto end = topo_.trace_route_up(nic_.self(), backup);
  if (!end || *end != net::Device::host(dst)) {
    ++stats_.backup_stale_rejections;
    return false;  // caller drops the whole entry; next request re-probes
  }
  path_cache_.promote(dst);
  ++stats_.backup_promotions;
  // Refill the emptied backup slot off the critical path.
  if (!replenishing_.contains(dst)) {
    replenishing_[dst] = true;
    replenish_backup(dst, backup);
  }
  return true;
}

sim::Process OnDemandMapper::replenish_backup(HostId dst, Route primary) {
  auto& sched = nic_.sched();
  // Deterministic yield: the promote that scheduled us unwinds first, so
  // replenish work never extends the failure-handling critical path.
  co_await sim::DelayFor{sched, 0};
  // The entry may have vanished (evicted, peer died, nic reset) or been
  // remapped while we were scheduled; a changed primary voids the premise
  // the disjoint candidate would be computed against.
  const Route* cur = path_cache_.peek(dst);
  if (cur == nullptr || *cur != primary) {
    replenishing_.erase(dst);
    co_return;
  }
  auto alt = topo_.disjoint_route(nic_.self(), dst, primary, backup_salt(dst));
  if (!alt) {
    replenishing_.erase(dst);
    co_return;
  }
  // One host probe verifies the candidate end-to-end before it is trusted
  // as a future promotion target (the oracle knows wiring, not transient
  // fault state at packet granularity).
  ++stats_.backup_replenish_probes;
  HostId replier;
  Route probe_route = alt->route;
  const bool ok = co_await probe_and_wait_impl(PacketType::kProbeHost,
                                               std::move(probe_route),
                                               &replier);
  const Route* cur2 = path_cache_.peek(dst);
  if (ok && replier == dst && cur2 != nullptr && *cur2 == primary) {
    install_backup(dst, std::move(*alt));
  }
  replenishing_.erase(dst);
}

void OnDemandMapper::request_route(HostId dst, RouteCallback cb) {
  // Merge into the mapping currently running for the same destination...
  if (active_dst_ && *active_dst_ == dst && active_cbs_ != nullptr) {
    active_cbs_->push_back(std::move(cb));
    return;
  }
  // ...or into a queued one.
  for (auto& pr : queue_) {
    if (pr.dst == dst) {
      pr.cbs.push_back(std::move(cb));
      return;
    }
  }
  queue_.push_back(PendingRequest{dst, {}});
  queue_.back().cbs.push_back(std::move(cb));
  if (!mapping_active_) {
    mapping_active_ = true;
    drive();
  }
}

void OnDemandMapper::inject_probe(Packet pkt) {
  // Probes use a small dedicated SRAM buffer (they never touch the send
  // pool) and one firmware dispatch on the control processor.
  nic_.inject_after_cpu(nic_.costs().probe_process, std::move(pkt));
}

void OnDemandMapper::on_probe_packet(Packet pkt) {
  auto& sched = nic_.sched();
  switch (pkt.hdr.type) {
    case PacketType::kProbeHost: {
      if (pkt.hdr.src == nic_.self()) return;  // our own probe looped home
      // Answer: "a host lives here" — routed back along the reverse of the
      // path the probe took.
      ++stats_.probe_replies_tx;
      Packet rep;
      rep.hdr.type = PacketType::kProbeReply;
      rep.hdr.src = nic_.self();
      rep.hdr.dst = pkt.hdr.src;
      rep.hdr.user.w0 = pkt.hdr.user.w0;  // nonce
      rep.hdr.user.w1 = nic_.self().v;
      rep.hdr.route.ports.assign(pkt.in_ports.rbegin(), pkt.in_ports.rend());
      inject_probe(std::move(rep));
      return;
    }
    case PacketType::kProbeSwitch:
      // A bounce probe only means something to its own sender.
      if (pkt.hdr.src != nic_.self()) return;
      replies_.deliver(sched, pkt.hdr.user.w0, nic_.self());
      return;
    case PacketType::kProbeReply:
      ++stats_.probe_replies_rx;
      replies_.deliver(sched, pkt.hdr.user.w0,
                       HostId{static_cast<std::uint32_t>(pkt.hdr.user.w1)});
      return;
    default:
      return;
  }
}

/// Send one probe of `type` down `route`, wait for reply or timeout,
/// retrying per config.
sim::Task<bool> OnDemandMapper::probe_and_wait_impl(PacketType type,
                                                    Route route,
                                                    HostId* replier) {
  auto& sched = nic_.sched();
  for (int attempt = 0; attempt <= cfg_.probe_retries; ++attempt) {
    const std::uint64_t nonce = next_nonce_++;
    decltype(replies_)::Slot reply(replies_, nonce);

    Packet pkt;
    pkt.hdr.type = type;
    pkt.hdr.src = nic_.self();
    pkt.hdr.route = route;
    pkt.hdr.user.w0 = nonce;
    if (type == PacketType::kProbeHost) {
      ++stats_.host_probes_tx;
    } else {
      ++stats_.switch_probes_tx;
    }
    inject_probe(std::move(pkt));

    // Left to expire even when the reply comes first: cancelling it would
    // change when Scheduler::run() drains.
    sched.after(cfg_.probe_timeout,
                [this, nonce, &sched] { replies_.wake(sched, nonce); });
    co_await reply.wait(sched);
    if (reply.answered()) {
      if (replier != nullptr) *replier = reply.reply();
      co_return true;
    }
    ++stats_.probe_timeouts;
  }
  co_return false;
}

sim::Task<std::optional<Route>> OnDemandMapper::bfs(HostId dst,
                                                    std::uint64_t* probes_used) {
  auto over_budget = [&] { return *probes_used >= cfg_.max_probes; };
  auto count_probe = [&] { ++*probes_used; };
  // Budget exhaustion aborts the whole mapping; one stat bump per mapping.
  auto budget_fail = [&]() -> std::optional<Route> {
    ++stats_.probe_budget_exhausted;
    return std::nullopt;
  };
  // Hosts found in passing are cached only when configured to; the requested
  // destination is cached (and the cache consulted) whenever capacity > 0.
  const bool caching = cfg_.cache_discovered_hosts &&
                       cfg_.path_cache_capacity > 0;

  if (cfg_.path_cache_capacity > 0) {
    // A destination whose path failed was invalidated (on_path_failure)
    // before this request, so a surviving entry is trustworthy.
    const Route* cached = path_cache_.get(dst);
    if (cached != nullptr) {
      ++stats_.path_cache_hits;
      Route hit = *cached;
      co_return hit;
    }
  }

  // --- level -1: what hangs off our own cable? -----------------------------
  // NOTE: all probe routes below are built as named locals; GCC 12 miscompiles
  // braced aggregate temporaries inside co_await arguments ("array used as
  // initializer").
  if (!attach_port_) {
    // A direct host-to-host cable first.
    HostId replier;
    count_probe();
    Route empty_route;
    if (co_await probe_and_wait_impl(PacketType::kProbeHost, empty_route,
                                     &replier)) {
      if (caching) {
        path_cache_.put(replier, Route{}, &stats_.path_cache_evictions);
      }
      if (replier == dst) co_return Route{};
      co_return std::nullopt;  // point-to-point cable; nothing else out there
    }
    // Otherwise find which port of the first crossbar we hang off: bounce
    // probes until one comes straight back.
    for (std::uint8_t y = 0; y < cfg_.max_ports; ++y) {
      if (over_budget()) co_return budget_fail();
      count_probe();
      Route bounce;
      bounce.ports.push_back(y);
      if (co_await probe_and_wait_impl(PacketType::kProbeSwitch,
                                       std::move(bounce), nullptr)) {
        attach_port_ = y;
        break;
      }
    }
    if (!attach_port_) co_return std::nullopt;  // dead cable
  }

  // --- BFS over crossbars, level by level ----------------------------------
  // `known` is every switch discovered so far (crossbars have no identity;
  // it is what the duplicate-detection probes compare against). The frontier
  // is a set of indices into it — phase (b) grows `known`, so loop bodies
  // copy the fields they need instead of holding references across awaits.
  std::vector<KnownSwitch> known;
  {
    KnownSwitch root;
    root.forward = Route{};
    root.reverse = {*attach_port_};
    root.entry_port = *attach_port_;
    root.dev = topo_.device_after(nic_.self(), Route{});
    known.push_back(std::move(root));
  }
  std::vector<std::size_t> frontier{0};

  for (std::size_t depth = 0; depth < cfg_.max_depth && !frontier.empty();
       ++depth) {
    // (a) Host-probe every unexplored port of every frontier switch. The
    // search stops the moment the destination answers — which is what makes
    // same-switch mappings host-probe-only (Table 3, row 1) — unless
    // multipath is on, in which case the rest of this level is probed too so
    // the equal-cost candidate set is complete before selection.
    struct SilentPort {
      std::size_t sw;  // index into `known`
      std::uint8_t port;
    };
    std::vector<SilentPort> silent;
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::size_t found_sw = kNone;
    std::uint8_t found_port = 0;
    for (const std::size_t fi : frontier) {
      const Route f_forward = known[fi].forward;
      const std::uint8_t f_entry = known[fi].entry_port;
      const std::uint8_t f_radix = radix_of(known[fi].dev);
      for (std::uint8_t p = 0; p < f_radix; ++p) {
        if (p == f_entry) continue;
        if (over_budget()) co_return budget_fail();
        Route hr = f_forward;
        hr.ports.push_back(p);
        HostId replier;
        count_probe();
        if (co_await probe_and_wait_impl(PacketType::kProbeHost, hr,
                                         &replier)) {
          if (caching && !path_cache_.contains(replier)) {
            path_cache_.put(replier, hr, &stats_.path_cache_evictions);
          }
          if (replier == dst) {
            if (!cfg_.multipath) co_return hr;
            if (found_sw == kNone) {
              found_sw = fi;
              found_port = p;
            }
          }
        } else {
          silent.push_back({fi, p});
        }
      }
    }
    if (found_sw != kNone) {
      // Deterministic multipath: the destination's edge crossbar was reached
      // through one shortest path per discovery order, but every equal-length
      // alternative recorded by duplicate detection (alt_forwards) exits the
      // same crossbar through the same port. Pick among them with an Rng
      // keyed only on (salt, self, dst): independent of probe interleaving,
      // so parallel sweeps stay byte-identical for any --jobs N.
      std::vector<Route> candidates;
      Route primary = known[found_sw].forward;
      primary.ports.push_back(found_port);
      candidates.push_back(std::move(primary));
      for (const Route& alt : known[found_sw].alt_forwards) {
        Route r2 = alt;
        r2.ports.push_back(found_port);
        candidates.push_back(std::move(r2));
      }
      stats_.multipath_candidates += candidates.size();
      sim::Rng pick(cfg_.multipath_salt ^
                    (0x9E3779B97F4A7C15ull * (nic_.self().v + 1)) ^
                    (0xC2B2AE3D27D4EB4Full * (dst.v + 1)));
      const std::size_t sel = pick.uniform(candidates.size());
      Route chosen = candidates[sel];
      co_return chosen;
    }

    // (b) Identify what sits behind each silent port.
    //
    // First, duplicate detection ("distinguishing new switches from old
    // ones", Table 3): if an already-known crossbar K is behind the port,
    // then routing through the port and down K's known way home brings the
    // probe back — one probe per comparison, no radix-sized guessing, and
    // redundant links / back-edges stop spawning re-exploration. When the
    // duplicate sits at the same BFS depth, the rejected path is an
    // equal-cost alternative into K — multipath remembers it.
    //
    // Only genuinely new crossbars then pay the bounce-guessing of their
    // entry port (up to max_ports tries).
    std::vector<std::size_t> next;
    for (const SilentPort& sp : silent) {
      const Route sw_forward = known[sp.sw].forward;
      const net::PortList sw_reverse = known[sp.sw].reverse;
      Route nf = sw_forward;
      nf.ports.push_back(sp.port);
      // Identity verdict source: the fabric database, read once per silent
      // port here and once per crossbar at its discovery (KnownSwitch::dev).
      // The behavioural test (the cycle probe returning means "an old switch
      // is behind this port") false-merges *distinct* switches at symmetric
      // positions of regular fabrics — a probe into a fat-tree edge routed
      // down a sibling edge's way home still loops back to the prober —
      // which silently prunes whole pods from the search. Unless
      // configured_identity is set, the probe is still sent, timed and
      // counted: the database does not waive Table 3's "distinguishing new
      // switches from old ones" traffic.
      const std::optional<net::Device> cand_dev =
          topo_.device_after(nic_.self(), nf);
      bool duplicate = false;
      for (std::size_t j = 0; j < known.size(); ++j) {
        if (over_budget()) co_return budget_fail();
        if (!cfg_.configured_identity) {
          Route vr = nf;
          vr.ports.append(known[j].reverse.begin(), known[j].reverse.end());
          count_probe();
          co_await probe_and_wait_impl(PacketType::kProbeSwitch, vr, nullptr);
        }
        if (cand_dev && cand_dev->is_switch() && known[j].dev == cand_dev) {
          duplicate = true;
          if (cfg_.multipath) {
            Route alt = nf;
            KnownSwitch& dup = known[j];
            if (alt.ports.size() == dup.forward.ports.size() &&
                alt != dup.forward &&
                dup.alt_forwards.size() < kMaxAltForwards &&
                std::find(dup.alt_forwards.begin(), dup.alt_forwards.end(),
                          alt) == dup.alt_forwards.end()) {
              dup.alt_forwards.push_back(std::move(alt));
            }
          }
          break;
        }
      }
      if (duplicate) continue;
      const std::uint8_t guess_bound = radix_of(cand_dev);
      for (std::uint8_t y = 0; y < guess_bound; ++y) {
        if (over_budget()) co_return budget_fail();
        Route br = sw_forward;
        br.ports.push_back(sp.port);
        br.ports.push_back(y);
        br.ports.append(sw_reverse.begin(), sw_reverse.end());
        count_probe();
        if (co_await probe_and_wait_impl(PacketType::kProbeSwitch, br,
                                         nullptr)) {
          KnownSwitch ns;
          ns.forward = nf;
          ns.entry_port = y;
          ns.dev = cand_dev;
          ns.reverse.push_back(y);
          ns.reverse.append(sw_reverse.begin(), sw_reverse.end());
          known.push_back(std::move(ns));
          next.push_back(known.size() - 1);
          break;
        }
      }
    }
    frontier = std::move(next);
  }
  co_return std::nullopt;
}

sim::Process OnDemandMapper::drive() {
  auto& sched = nic_.sched();
  while (!queue_.empty()) {
    PendingRequest req = std::move(queue_.front());
    queue_.pop_front();
    ++stats_.mappings_started;

    const sim::Time t0 = sched.now();
    const std::uint64_t h0 = stats_.host_probes_tx;
    const std::uint64_t s0 = stats_.switch_probes_tx;
    std::uint64_t probes_used = 0;
    active_dst_ = req.dst;
    active_cbs_ = &req.cbs;
    active_invalidated_ = false;
    active_promoted_ = false;
    std::optional<Route> result = co_await bfs(req.dst, &probes_used);
    const bool poisoned = active_invalidated_;
    const bool promoted = active_promoted_;
    active_dst_.reset();
    active_cbs_ = nullptr;
    active_invalidated_ = false;
    active_promoted_ = false;

    stats_.last_mapping_time = sched.now() - t0;
    stats_.mapping_time_total += stats_.last_mapping_time;
    // Mapping runs are rare (permanent failures only), so the string build
    // and registry lookup are off any hot path.
    obs::Registry::of(sched)
        .histogram("mapper.mapping_time_ns{node=" +
                       std::to_string(nic_.self().v) + "}",
                   "ns")
        .record(static_cast<std::uint64_t>(stats_.last_mapping_time));
    stats_.last_host_probes = stats_.host_probes_tx - h0;
    stats_.last_switch_probes = stats_.switch_probes_tx - s0;
    // A run poisoned by a concurrent on_path_failure is served but never
    // cached — including the entry bfs itself may have added when a probe
    // from the (possibly dead) path reached the destination in passing.
    // Exception: when that failure was answered by a backup promotion, the
    // promoted entry is the live truth — it must survive (no double-cache)
    // and it, not the stale BFS result, answers the waiting callbacks.
    if (poisoned && !promoted) {
      path_cache_.erase(req.dst);
    } else if (poisoned && promoted) {
      if (const Route* cur = path_cache_.get(req.dst)) {
        ++stats_.path_cache_hits;
        result = *cur;
      }
    }
    if (result) {
      ++stats_.mappings_succeeded;
      // The requested destination is always cached (capacity permitting);
      // cache_discovered_hosts only governs hosts found in passing.
      if (cfg_.path_cache_capacity > 0 && !poisoned) {
        path_cache_.put(req.dst, *result, &stats_.path_cache_evictions);
        fill_backup(req.dst);
      }
    } else {
      ++stats_.mappings_failed;
    }
    for (auto& cb : req.cbs) cb(result);
  }
  mapping_active_ = false;
}

}  // namespace sanfault::firmware
