/**
 * @file
 * Table-driven routing (paper II-A2).
 *
 * Per-node routing tables are addressed by the flow id and incoming
 * direction <prev_node_id, flow_id>; each entry is a set of weighted
 * next-hop results {<next_node_id, next_flow_id, weight>, ...}. When a
 * set contains more than one option, one is selected at random with
 * propensity proportional to its weight, and the packet's flow id is
 * renamed to next_flow_id. A packet injected at node n is looked up
 * with prev_node_id == n.
 *
 * Delivery is expressed as next_node_id == the node itself.
 *
 * The table has two phases. While building (the routing builders run
 * at construction time) add() appends a (key, option) record to a
 * common::FlatTableBuilder. freeze() sorts and merges the records in
 * place — repeated options of a key sum their weights in add() order
 * and keep their first-occurrence position — compiles them into a
 * common::FlatTable (single-probe open addressing with all option
 * lists packed into one arena slab) and releases them; the per-flit
 * hot path (Router::do_route_compute) only ever sees the frozen form.
 * add() after freeze() panics, and so does every read before it
 * (lookup/pick/keys/size/for_each_entry). The one build-time reader,
 * the VCA builders, walks the merged records with for_each_option().
 * A lookup returns a FlatEntry view (or nullptr when absent) whose
 * precomputed total weight keeps the weighted pick's RNG draws
 * bit-for-bit identical to a per-key accumulation of the same adds.
 */
#ifndef HORNET_NET_ROUTING_TABLE_H
#define HORNET_NET_ROUTING_TABLE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/flat_table.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/types.h"

namespace hornet::net {

/** One weighted next-hop result. */
struct RouteResult
{
    /** Next hop (== the routing node itself for delivery). */
    NodeId next_node = kInvalidNode;
    /** Flow id the packet is renamed to on this hop. */
    FlowId next_flow = kInvalidFlow;
    /** Selection propensity among the entry's options. */
    double weight = 1.0;
};

/** Key of a routing-table entry. */
struct RouteKey
{
    /** Node the packet arrived from (== this node for injection). */
    NodeId prev_node;
    /** Flow id carried by the packet. */
    FlowId flow;

    /** Keys are equal when both fields match. */
    bool operator==(const RouteKey &) const = default;

    /** Builder sort order: flow, then prev_node. Routing builders add
     *  flows in increasing id order, so a router's records usually
     *  arrive already sorted and the builder skips the sort. */
    bool
    operator<(const RouteKey &o) const
    {
        return flow != o.flow ? flow < o.flow : prev_node < o.prev_node;
    }
};

/** Hash functor for RouteKey (flat-table slot placement). */
struct RouteKeyHash
{
    /** Mix both key fields into a table hash. */
    std::size_t
    operator()(const RouteKey &k) const
    {
        std::uint64_t h = k.flow * 0x9e3779b97f4a7c15ull;
        h ^= (static_cast<std::uint64_t>(k.prev_node) + 0x7f4a7c15u) *
             0xbf58476d1ce4e5b9ull;
        h ^= h >> 29;
        return static_cast<std::size_t>(h);
    }
};

/** Two options are the same when they name the same hop and flow. */
struct SameRoute
{
    /** True when @p a and @p b differ at most in weight. */
    bool
    operator()(const RouteResult &a, const RouteResult &b) const
    {
        return a.next_node == b.next_node && a.next_flow == b.next_flow;
    }
};

/**
 * One node's routing table (two-phase: append-only records while
 * building, frozen flat table at run time — see the file comment).
 */
class RoutingTable
{
  public:
    /** The option-set view lookups return. */
    using Options = common::FlatEntry<RouteResult>;

    /** Table of node @p node (the delivery sentinel). */
    explicit RoutingTable(NodeId node = kInvalidNode) : node_(node) {}
    /** Not copyable: a frozen table reads through a pointer to its own
     *  storage. */
    RoutingTable(const RoutingTable &) = delete;
    /** Not copyable (see the copy constructor). */
    RoutingTable &operator=(const RoutingTable &) = delete;

    /** The node this table routes for. */
    NodeId node() const { return node_; }

    /** Add (accumulate) a weighted next-hop option for <prev, flow>.
     *  Adding an option that already exists accumulates its weight.
     *  Panics once the table is frozen. */
    void add(NodeId prev_node, FlowId flow, const RouteResult &result);

    /**
     * Builder-side walk: merge the options added so far (as freeze()
     * will) and call @p fn(key, option) for every option of every
     * key, in key order. Panics once the table is frozen.
     */
    template <typename Fn>
    void
    for_each_option(Fn fn)
    {
        if (frozen())
            panic(strcat("routing table at node ", node_,
                         ": builder walk after freeze() (", describe(), ")"));
        builder_.for_each_run(
            [&](const RouteKey &key, const Builder::Record *first,
                std::size_t n) {
                for (std::size_t i = 0; i < n; ++i)
                    fn(key, first[i].value);
            });
    }

    /** All options for <prev, flow>, or nullptr when absent. The view
     *  stays valid for the table's lifetime. Panics before freeze(). */
    const Options *lookup(NodeId prev_node, FlowId flow) const;

    /** Weighted random pick among the options (panics when absent). */
    const RouteResult &pick(NodeId prev_node, FlowId flow, Rng &rng) const;

    /**
     * Weighted random pick among already-looked-up options: the hot
     * path pairs one lookup() with one pick_from() instead of paying
     * the probe twice. Draw-for-draw identical to the map-era pick():
     * a single-option entry draws nothing; a multi-option entry draws
     * one uniform scaled by the precomputed total weight and
     * subtract-scans in option order. @p opts must be non-empty.
     */
    const RouteResult &
    pick_from(const Options &opts, Rng &rng) const
    {
        if (opts.count == 1)
            return opts.front();
        double r = rng.uniform() * opts.total_weight;
        for (std::uint32_t i = 0; i + 1 < opts.count; ++i) {
            r -= opts[i].weight;
            if (r < 0.0)
                return opts[i];
        }
        return opts[opts.count - 1];
    }

    /**
     * Compile the added records into the frozen flat form, carving
     * slots and the packed option slab from @p arena (the owning
     * router's placement-group arena; null falls back to a private
     * arena), then release the records. Idempotent; after it, add()
     * panics.
     */
    void freeze(common::Arena *arena = nullptr);

    /**
     * Share a donor's frozen flat table instead of building one: all
     * frozen-phase reads (lookup/keys/size/describe) are served from
     * the donor's storage, so per-run Systems instantiated from a
     * sim::SystemBlueprint skip the whole build+freeze pass and share
     * one read-only table across concurrent runs. Panics unless this
     * table is empty and unfrozen and @p donor is frozen. The donor
     * (or the blueprint owning it) must outlive this table; adoption
     * chains resolve to the original storage, so adopting an adopter
     * is fine. After adopt() this table reports frozen() and add()
     * panics, exactly as after freeze().
     */
    void adopt(const RoutingTable &donor);

    /** True once freeze() (or adopt()) has run. */
    bool frozen() const { return read_ != nullptr; }

    /** Number of table entries (keys). Panics before freeze(). */
    std::size_t size() const { return read("size").size(); }

    /** All keys (tests / table sanity checks). Panics before
     *  freeze(). */
    std::vector<RouteKey> keys() const;

    /** Call @p fn(key, options) for every entry, in slot order.
     *  Panics before freeze(). */
    template <typename Fn>
    void
    for_each_entry(Fn fn) const
    {
        read("for_each_entry").for_each_key(fn);
    }

    /** One-line phase/size/probe diagnostics for panic messages. */
    std::string describe() const;

  private:
    using Flat = common::FlatTable<RouteKey, RouteResult, RouteKeyHash>;
    using Builder = common::FlatTableBuilder<RouteKey, RouteResult, SameRoute>;

    /** The frozen storage; panics naming @p what before freeze(). */
    const Flat &read(const char *what) const;

    NodeId node_;
    Builder builder_;
    Flat flat_;
    /** Storage reads go to: own flat_ after freeze(), the donor's
     *  after adopt(), null while building. */
    const Flat *read_ = nullptr;
};

/**
 * Flows deliverable at @p node according to its routing table: the
 * next_flow of every option whose next_node is the node itself (the
 * delivery sentinel), sorted and deduplicated. This is the flow set
 * System::freeze_tables() registers with the tile's FlowStatsTable;
 * sim::SystemBlueprint precomputes it once per node so instantiated
 * systems skip the walk. Panics before the table is frozen.
 */
std::vector<FlowId> deliverable_flows(const RoutingTable &table, NodeId node);

} // namespace hornet::net

#endif // HORNET_NET_ROUTING_TABLE_H
