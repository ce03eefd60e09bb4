#include "net/routing_table.h"

#include <algorithm>

namespace hornet::net {

void
RoutingTable::add(NodeId prev_node, FlowId flow, const RouteResult &result)
{
    if (frozen())
        panic(strcat("routing table at node ", node_,
                     ": add() after freeze() (", describe(), ")"));
    if (result.weight <= 0.0)
        fatal("routing table: weights must be positive");
    builder_.add(RouteKey{prev_node, flow}, result);
}

const RoutingTable::Options *
RoutingTable::lookup(NodeId prev_node, FlowId flow) const
{
    return read("lookup").lookup(RouteKey{prev_node, flow});
}

const RoutingTable::Flat &
RoutingTable::read(const char *what) const
{
    if (read_ == nullptr) [[unlikely]]
        panic(strcat("routing table at node ", node_, ": ", what,
                     " before freeze() (", describe(), ")"));
    return *read_;
}

const RouteResult &
RoutingTable::pick(NodeId prev_node, FlowId flow, Rng &rng) const
{
    const Options *opts = lookup(prev_node, flow);
    if (opts == nullptr || opts->empty()) {
        panic(strcat("routing table at node ", node_, ": no entry for prev=",
                     prev_node, " flow=", flow, " (", describe(), ")"));
    }
    return pick_from(*opts, rng);
}

void
RoutingTable::freeze(common::Arena *arena)
{
    if (frozen())
        return;
    builder_.build(flat_, arena);
    read_ = &flat_;
}

void
RoutingTable::adopt(const RoutingTable &donor)
{
    if (frozen() || builder_.size() != 0)
        panic(strcat("routing table at node ", node_,
                     ": adopt() on a non-empty table (", describe(), ")"));
    // Chain-resolves: an adopter's read_ already names the original
    // storage (the blueprint prototype's).
    read_ = &donor.read("adopt() donor");
}

std::vector<RouteKey>
RoutingTable::keys() const
{
    std::vector<RouteKey> out;
    out.reserve(size());
    for_each_entry(
        [&](const RouteKey &k, const Options &) { out.push_back(k); });
    return out;
}

std::string
RoutingTable::describe() const
{
    if (!frozen())
        return strcat("unfrozen: ", builder_.size(), " records");
    return strcat(read_ == &flat_ ? "frozen" : "adopted",
                  " flat table: ", read_->size(), " entries, capacity ",
                  read_->capacity(), ", max probe ", read_->max_probe());
}


std::vector<FlowId>
deliverable_flows(const RoutingTable &table, NodeId node)
{
    std::vector<FlowId> flows;
    table.for_each_entry(
        [&](const RouteKey &, const RoutingTable::Options &opts) {
            for (const RouteResult &r : opts)
                if (r.next_node == node)
                    flows.push_back(r.next_flow);
        });
    std::sort(flows.begin(), flows.end());
    flows.erase(std::unique(flows.begin(), flows.end()), flows.end());
    return flows;
}

} // namespace hornet::net
