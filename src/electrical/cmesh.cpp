#include "electrical/cmesh.hpp"

#include <bit>
#include <string>

#include "common/log.hpp"

namespace pearl {
namespace electrical {

using sim::Cycle;
using sim::NodeId;
using sim::Packet;

namespace {

constexpr std::uint64_t
bit(int i)
{
    return std::uint64_t{1} << i;
}

/** The `n`-bit mask rotated so that bit k of the result is bit
 *  (base + k) mod n of `mask`: scan step k of a round robin from base. */
std::uint64_t
rotateFrom(std::uint64_t mask, int base, int n)
{
    if (base == 0)
        return mask;
    return ((mask >> base) | (mask << (n - base))) & (bit(n) - 1);
}

/** `i + 1` wrapped to [0, n). */
int
nextWrapped(int i, int n)
{
    return i + 1 == n ? 0 : i + 1;
}

} // namespace

CmeshNetwork::CmeshNetwork(const CmeshConfig &cfg)
    : cfg_(cfg), numRouters_(cfg.meshX * cfg.meshY),
      numEndpoints_(numRouters_ + 1)
{
    PEARL_ASSERT(cfg_.numVcs >= 2 && cfg_.numVcs % 2 == 0,
                 "need an even VC count for request/response classes");
    PEARL_ASSERT(kCmeshMaxPorts * cfg_.numVcs <= kCmeshMaskBits,
                 "numVcs overflows the allocators' request masks");
    PEARL_ASSERT(cfg_.l3Router >= 0 && cfg_.l3Router < numRouters_);

    routers_.resize(static_cast<std::size_t>(numRouters_));
    interfaces_.assign(static_cast<std::size_t>(numEndpoints_),
                       NetworkInterface(cfg_.injectionQueueDepth));
    endpointPort_.resize(static_cast<std::size_t>(numEndpoints_));

    for (int r = 0; r < numRouters_; ++r) {
        Router &router = routers_[static_cast<std::size_t>(r)];
        router.localEndpoints.push_back(r); // the cluster endpoint
        if (r == cfg_.l3Router)
            router.localEndpoints.push_back(numRouters_); // the L3
        for (int dir = 0; dir < 4; ++dir)
            router.neighbors[static_cast<std::size_t>(dir)] =
                neighbor(r, dir);
        const int num_ports =
            4 + static_cast<int>(router.localEndpoints.size());
        router.inputs.assign(
            static_cast<std::size_t>(num_ports * cfg_.numVcs),
            InputVc(cfg_.vcDepthFlits));
        router.outputs.resize(static_cast<std::size_t>(num_ports));
        for (int p = 0; p < num_ports; ++p) {
            auto &out = router.outputs[static_cast<std::size_t>(p)];
            out.vcs.resize(static_cast<std::size_t>(cfg_.numVcs));
            for (auto &vc : out.vcs)
                vc.credits = cfg_.vcDepthFlits;
            // Local (ejection) ports are as wide as the endpoint
            // interface; mesh links carry one flit per cycle.
            if (p >= 4)
                out.width = localWidth(
                    router.localEndpoints[static_cast<std::size_t>(p - 4)]);
        }
        for (std::size_t i = 0; i < router.localEndpoints.size(); ++i) {
            endpointPort_[static_cast<std::size_t>(
                router.localEndpoints[i])] = {r, 4 + static_cast<int>(i)};
        }
    }
}

int
CmeshNetwork::routerOf(NodeId endpoint) const
{
    PEARL_ASSERT(endpoint >= 0 && endpoint < numEndpoints_);
    return endpointPort_[static_cast<std::size_t>(endpoint)].first;
}

int
CmeshNetwork::localWidth(sim::NodeId endpoint) const
{
    return endpoint == numRouters_ ? cfg_.mcLocalFlitsPerCycle
                                   : cfg_.clusterLocalFlitsPerCycle;
}

int
CmeshNetwork::neighbor(int router, int dir) const
{
    const int x = routerX(router);
    const int y = routerY(router);
    switch (dir) {
      case kPortN: return y + 1 < cfg_.meshY ? router + cfg_.meshX : -1;
      case kPortS: return y > 0 ? router - cfg_.meshX : -1;
      case kPortE: return x + 1 < cfg_.meshX ? router + 1 : -1;
      case kPortW: return x > 0 ? router - 1 : -1;
      default: return -1;
    }
}

int
CmeshNetwork::oppositePort(int dir) const
{
    switch (dir) {
      case kPortN: return kPortS;
      case kPortS: return kPortN;
      case kPortE: return kPortW;
      case kPortW: return kPortE;
      default: panic("oppositePort of a local port");
    }
}

int
CmeshNetwork::computeRoute(int router, const Packet &pkt) const
{
    const auto [dst_router, dst_port] =
        endpointPort_[static_cast<std::size_t>(pkt.dst)];
    const int x = routerX(router), y = routerY(router);
    const int dx = routerX(dst_router), dy = routerY(dst_router);
    if (x < dx)
        return kPortE;
    if (x > dx)
        return kPortW;
    if (y < dy)
        return kPortN;
    if (y > dy)
        return kPortS;
    return dst_port;
}

int
CmeshNetwork::vcClassBase(const Packet &pkt) const
{
    // Requests (and probes, which are op-requests) use the lower half of
    // the VCs; responses the upper half.  This breaks protocol deadlock.
    const bool response = pkt.op == sim::CoherenceOp::Data ||
                          pkt.op == sim::CoherenceOp::DataExcl ||
                          pkt.op == sim::CoherenceOp::Ack;
    return response ? cfg_.numVcs / 2 : 0;
}

bool
CmeshNetwork::canInject(const Packet &pkt) const
{
    const auto &ni = interfaces_[static_cast<std::size_t>(pkt.src)];
    return static_cast<int>(ni.queue.size()) < cfg_.injectionQueueDepth;
}

bool
CmeshNetwork::inject(const Packet &pkt)
{
    if (!canInject(pkt))
        return false;
    std::uint32_t slot;
    if (freeSlots_.empty()) {
        slot = static_cast<std::uint32_t>(packets_.size());
        packets_.push_back(pkt);
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        packets_[slot] = pkt;
    }
    Packet &copy = packets_[slot];
    copy.cycleInjected = cycle_;
    stats_.noteInjected(copy);
    interfaces_[static_cast<std::size_t>(pkt.src)].queue.push_back(slot);
    return true;
}

void
CmeshNetwork::ejectFlit(const Flit &flit)
{
    dynamicEnergyJ_ += cfg_.energy.ejectEnergyJ(sim::kFlitBits);
    --flitsInFlight_;
    if (flit.tail) {
        Packet &pkt = packets_[flit.pkt];
        pkt.cycleDelivered = cycle_;
        stats_.noteDelivered(pkt);
        delivered_.push_back(pkt);
        freeSlots_.push_back(flit.pkt);
    }
}

void
CmeshNetwork::deliverLinkFlits()
{
    for (Router &router : routers_) {
        // Only mesh ports drive a link; local ports eject directly.
        for (int p = 0; p < 4; ++p) {
            OutputPort &out = router.outputs[static_cast<std::size_t>(p)];
            if (!out.linkReg || cycle_ < out.linkReadyAt)
                continue;
            const int n = router.neighbors[static_cast<std::size_t>(p)];
            PEARL_ASSERT(n >= 0, "flit sent off the mesh edge");
            Router &down = routers_[static_cast<std::size_t>(n)];
            auto &fifo = inputVc(down, oppositePort(p), out.linkVc).fifo;
            PEARL_ASSERT(static_cast<int>(fifo.size()) < cfg_.vcDepthFlits,
                         "credit protocol violated");
            fifo.push_back(*out.linkReg);
            ++down.buffered;
            out.linkReg.reset();
            out.linkVc = -1;
        }
    }
}

void
CmeshNetwork::injectFromInterface(int e)
{
    NetworkInterface &ni = interfaces_[static_cast<std::size_t>(e)];
    if (ni.queue.empty())
        return;
    const auto [r, port] = endpointPort_[static_cast<std::size_t>(e)];
    Router &router = routers_[static_cast<std::size_t>(r)];

    const std::uint32_t slot = ni.queue.front();
    const int flits = packets_[slot].numFlits();

    // Find (or continue with) the VC carrying this packet.
    if (ni.flitsSent == 0) {
        const int base = vcClassBase(packets_[slot]);
        int chosen = -1;
        for (int v = base; v < base + cfg_.numVcs / 2; ++v) {
            const InputVc &vc = inputVc(router, port, v);
            if (vc.fifo.empty() && !vc.routed) {
                chosen = v;
                break;
            }
        }
        if (chosen < 0)
            return; // all class VCs busy; retry next cycle
        ni.curVc = chosen;
    }

    // The NI datapath pushes up to the local-port width per cycle.
    InputVc &vc = inputVc(router, port, ni.curVc);
    int budget = localWidth(e);
    while (budget-- > 0) {
        if (static_cast<int>(vc.fifo.size()) >= cfg_.vcDepthFlits)
            break;
        vc.fifo.push_back(Flit{slot, ni.flitsSent == 0,
                               ni.flitsSent == flits - 1});
        ++router.buffered;
        ++flitsInFlight_;
        ++ni.flitsSent;
        if (ni.flitsSent == flits) {
            ni.queue.pop_front();
            ni.flitsSent = 0;
            break; // next packet picks a VC next cycle
        }
    }
}

void
CmeshNetwork::routeAndAllocate(int router_id)
{
    Router &router = routers_[static_cast<std::size_t>(router_id)];
    const int total_vcs = static_cast<int>(router.inputs.size());
    const int va_start = router.vaPointer;
    // The pointer advances every cycle, busy or idle.
    router.vaPointer = nextWrapped(va_start, total_vcs);
    if (router.buffered == 0)
        return;

    // Route computation for fresh head flits, collecting the routed
    // heads still without a downstream VC.
    std::uint64_t waiting = 0;
    for (int idx = 0; idx < total_vcs; ++idx) {
        InputVc &vc = router.inputs[static_cast<std::size_t>(idx)];
        if (vc.fifo.empty())
            continue;
        if (!vc.routed && vc.fifo.front().head) {
            vc.outPort =
                computeRoute(router_id, packets_[vc.fifo.front().pkt]);
            vc.routed = true;
        }
        if (vc.routed && vc.outVc < 0)
            waiting |= bit(idx);
    }

    // VC allocation in round-robin order from vaPointer.  Granting one
    // input VC changes no other's eligibility, only which output VCs
    // are left, so walking the collected bits is the full scan.
    for (std::uint64_t order = rotateFrom(waiting, va_start, total_vcs);
         order != 0; order &= order - 1) {
        int idx = va_start + std::countr_zero(order);
        if (idx >= total_vcs)
            idx -= total_vcs;
        InputVc &vc = router.inputs[static_cast<std::size_t>(idx)];
        if (vc.outPort >= 4) {
            // Ejection needs no downstream VC.
            vc.outVc = idx % cfg_.numVcs;
            continue;
        }
        OutputPort &out =
            router.outputs[static_cast<std::size_t>(vc.outPort)];
        const int base = vcClassBase(packets_[vc.fifo.front().pkt]);
        for (int ov = base; ov < base + cfg_.numVcs / 2; ++ov) {
            OutputVc &ovc = out.vcs[static_cast<std::size_t>(ov)];
            if (!ovc.allocated) {
                ovc.allocated = true;
                vc.outVc = ov;
                break;
            }
        }
    }
}

void
CmeshNetwork::switchAllocate(int router_id)
{
    Router &router = routers_[static_cast<std::size_t>(router_id)];
    if (router.buffered == 0)
        return;
    const int num_ports = static_cast<int>(router.outputs.size());
    const int total_vcs = static_cast<int>(router.inputs.size());

    // Each output port's requests: the input VCs holding a flit with a
    // route and a downstream VC.  A VC asks for one port only, so a
    // grant on one port never changes another port's requests.
    std::array<std::uint64_t, kCmeshMaxPorts> requests{};
    for (int idx = 0; idx < total_vcs; ++idx) {
        const InputVc &vc = router.inputs[static_cast<std::size_t>(idx)];
        if (vc.routed && vc.outVc >= 0 && !vc.fifo.empty())
            requests[static_cast<std::size_t>(vc.outPort)] |= bit(idx);
    }

    for (int out_port = 0; out_port < num_ports; ++out_port) {
        std::uint64_t wanting =
            requests[static_cast<std::size_t>(out_port)];
        if (wanting == 0)
            continue;
        OutputPort &out =
            router.outputs[static_cast<std::size_t>(out_port)];
        const bool local = out_port >= 4;
        if (!local && out.linkReg)
            continue; // link busy this cycle
        int budget = out.width;
        // Scan step i probes VC (rrPointer + i) mod total_vcs with the
        // pointer as it is *now*, and the pointer moves to just past
        // every grant.  So after a grant at step i the scan resumes i + 1
        // VCs further on than a plain round robin would, and with a
        // budget above one (ejection ports) its last steps can wrap back
        // to the VC just served.  Kept deliberately: it is the model's
        // cycle behaviour (DESIGN.md "CMESH allocator").  The walk
        // re-rotates the request mask from the moved pointer after each
        // grant and resumes at step i + 1, which probes exactly the VCs
        // the per-step scan probes.
        for (int i = 0; i < total_vcs && budget > 0; ++i) {
            const std::uint64_t ahead =
                rotateFrom(wanting, out.rrPointer, total_vcs) >> i;
            if (ahead == 0)
                break;
            i += std::countr_zero(ahead);
            int idx = out.rrPointer + i;
            if (idx >= total_vcs)
                idx -= total_vcs;
            InputVc &vc = router.inputs[static_cast<std::size_t>(idx)];
            if (!local) {
                OutputVc &ovc =
                    out.vcs[static_cast<std::size_t>(vc.outVc)];
                if (ovc.credits <= 0)
                    continue;
                --ovc.credits;
            }

            const Flit flit = vc.fifo.front();
            vc.fifo.pop_front();
            --router.buffered;
            if (local) {
                ejectFlit(flit);
                --budget;
            } else {
                out.linkReg = flit;
                out.linkVc = vc.outVc;
                out.linkReadyAt =
                    cycle_ + static_cast<sim::Cycle>(cfg_.linkCyclesPerFlit);
                dynamicEnergyJ_ += cfg_.energy.hopEnergyJ(sim::kFlitBits);
            }
            out.rrPointer = nextWrapped(idx, total_vcs);

            // Credit return to the upstream router this VC drains from.
            const int p = idx / cfg_.numVcs;
            if (p < 4) {
                const int up = router.neighbors[static_cast<std::size_t>(p)];
                if (up >= 0) {
                    ++routers_[static_cast<std::size_t>(up)]
                          .outputs[static_cast<std::size_t>(oppositePort(p))]
                          .vcs[static_cast<std::size_t>(idx % cfg_.numVcs)]
                          .credits;
                }
            }

            if (flit.tail) {
                if (!local) {
                    out.vcs[static_cast<std::size_t>(vc.outVc)].allocated =
                        false;
                }
                vc.routed = false;
                vc.outPort = -1;
                vc.outVc = -1;
            }
            if (flit.tail || vc.fifo.empty())
                wanting &= ~bit(idx);
            if (!local)
                break; // one flit per mesh link per cycle
        }
    }
}

void
CmeshNetwork::step()
{
    deliverLinkFlits();
    for (int e = 0; e < numEndpoints_; ++e)
        injectFromInterface(e);
    for (int r = 0; r < numRouters_; ++r)
        routeAndAllocate(r);
    for (int r = 0; r < numRouters_; ++r)
        switchAllocate(r);
    ++cycle_;
}

std::uint64_t
CmeshNetwork::countBufferedFlits() const
{
    std::uint64_t count = 0;
    for (const Router &router : routers_) {
        for (const InputVc &vc : router.inputs)
            count += vc.fifo.size();
        for (const OutputPort &out : router.outputs)
            count += out.linkReg ? 1 : 0;
    }
    return count;
}

std::optional<std::string>
CmeshNetwork::audit() const
{
    const auto where = [](int r, int p, int v) {
        return "router " + std::to_string(r) + " port " +
               std::to_string(p) + " vc " + std::to_string(v);
    };
    for (int r = 0; r < numRouters_; ++r) {
        const Router &router = routers_[static_cast<std::size_t>(r)];
        int buffered = 0;
        for (const InputVc &vc : router.inputs)
            buffered += static_cast<int>(vc.fifo.size());
        if (buffered != router.buffered)
            return "router " + std::to_string(r) + " counts " +
                   std::to_string(router.buffered) +
                   " buffered flits, recount " + std::to_string(buffered);

        // Only mesh ports have credits and downstream VCs to allocate.
        for (int p = 0; p < 4; ++p) {
            const OutputPort &out =
                router.outputs[static_cast<std::size_t>(p)];
            const int n = router.neighbors[static_cast<std::size_t>(p)];
            for (int v = 0; v < cfg_.numVcs; ++v) {
                const OutputVc &ovc = out.vcs[static_cast<std::size_t>(v)];
                const std::size_t queued =
                    n < 0 ? 0
                          : inputVc(routers_[static_cast<std::size_t>(n)],
                                    oppositePort(p), v)
                                .fifo.size();
                const int on_link = out.linkReg && out.linkVc == v;
                if (ovc.credits + static_cast<int>(queued) + on_link !=
                    cfg_.vcDepthFlits) {
                    return where(r, p, v) + ": credits " +
                           std::to_string(ovc.credits) + " + queued " +
                           std::to_string(queued) + " + on link " +
                           std::to_string(on_link) + " != depth " +
                           std::to_string(cfg_.vcDepthFlits);
                }
                int holders = 0;
                for (const InputVc &in : router.inputs)
                    holders += in.outPort == p && in.outVc == v;
                if (holders != (ovc.allocated ? 1 : 0))
                    return where(r, p, v) +
                           (ovc.allocated ? ": allocated" : ": free") +
                           " output VC held by " + std::to_string(holders) +
                           " input VCs";
            }
        }
    }
    if (countBufferedFlits() != flitsInFlight_)
        return "flitsInFlight " + std::to_string(flitsInFlight_) +
               " != recount " + std::to_string(countBufferedFlits());
    return std::nullopt;
}

bool
CmeshNetwork::idle() const
{
    if (flitsInFlight_ > 0)
        return false;
    for (const auto &ni : interfaces_) {
        if (!ni.queue.empty())
            return false;
    }
    return true;
}

double
CmeshNetwork::staticEnergyJ(double cycle_seconds) const
{
    return cfg_.energy.routerStaticW * numRouters_ *
           static_cast<double>(cycle_) * cycle_seconds;
}

} // namespace electrical
} // namespace pearl
