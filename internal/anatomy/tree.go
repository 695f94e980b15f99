package anatomy

import (
	"cmp"
	"slices"
)

// A congestion tree is the signature failure mode of a hot spot in a
// multistage network: the queues in front of the hot output fill, the
// switches feeding them block, *their* input queues fill, and the
// blocking spreads backward stage by stage until traffic that never
// wanted the hot output is stuck behind traffic that did (the
// Ultracomputer literature's "tree saturation"). The TreeDetector
// reconstructs these trees from the per-cycle blocked-by edges the
// Collector records: each cycle it walks every blocked ring's edge
// chain downstream to the first node that is not itself blocked — the
// tree's root — and aggregates per-root statistics over the tree's
// lifetime.

// Tree is one detected congestion tree, reported with the location of
// its root, how far back the blocking reached (Depth, in stages), how
// many wires it froze at its widest (Spread), when it lived, and its
// total cost in blocked ring-cycles.
type Tree struct {
	RootStage     int   `json:"root_stage"`          // 1-based stage of the root node
	RootSwitch    int   `json:"root_switch"`         // switch index within that stage
	RootTerminal  int   `json:"root_terminal"`       // output terminal, or -1 for a ring root
	Depth         int   `json:"depth"`               // longest blocked-by chain observed (edges)
	Spread        int   `json:"spread"`              // max simultaneously blocked rings
	FirstCycle    int64 `json:"first_cycle"`         // cycle the tree appeared
	LastCycle     int64 `json:"last_cycle"`          // last cycle it was observed
	BlockedCycles int64 `json:"blocked_ring_cycles"` // sum of spread over its lifetime
}

// treeState tracks the live tree rooted at one node.
type treeState struct {
	first     int64 // -1: no live tree at this node
	last      int64
	cycles    int64
	maxDepth  int32
	maxSpread int32
}

// treeDetector keeps its per-cycle and per-tree state in dense per-node
// arrays, indexed like the blame ledger, so observing a cycle allocates
// nothing and every list keeps the order nodes first appeared in.
type treeDetector struct {
	topK     int
	spread   []int32     // per node: rings it roots this cycle
	depth    []int32     // per node: deepest chain into it this cycle
	roots    []int32     // nodes with spread > 0 this cycle
	live     []treeState // per node
	active   []int32     // nodes with a live tree
	finished []Tree
}

func (td *treeDetector) reset(topK, nodes int) {
	td.topK = topK
	td.spread = make([]int32, nodes)
	td.depth = make([]int32, nodes)
	td.live = make([]treeState, nodes)
	for i := range td.live {
		td.live[i].first = -1
	}
	td.roots = make([]int32, 0, nodes)
	td.active = make([]int32, 0, nodes)
	td.finished = make([]Tree, 0, 8*topK+64)
}

// observe folds one cycle's blocked-by edges in. blockedBy[r] is the
// node blocking ring r (bbNone when no congestion edge leaves r's head;
// fault parks never join a tree).
func (td *treeDetector) observe(now int64, blocked []int32, blockedBy []int32, lay Layout) {
	for _, b := range blocked {
		// Walk downstream to the root: the first node that is not
		// itself a blocked ring. Edges point strictly downstream (a
		// head is blocked by a *later*-stage ring or a terminal), so
		// the walk terminates; the bound is defensive.
		cur := b
		depth := int32(0)
		for hops := 0; hops <= lay.Stages+1; hops++ {
			next := blockedBy[cur]
			depth++
			if next >= int32(lay.Rings) {
				// Terminal node: never blocked, always a root.
				cur = next
				break
			}
			if blockedBy[next] < 0 {
				// A full ring whose own head is not blocked (it is
				// draining, just not fast enough), or a parked ring.
				cur = next
				break
			}
			cur = next
		}
		if td.spread[cur] == 0 {
			td.roots = append(td.roots, cur)
		}
		td.spread[cur]++
		td.depth[cur] = max(td.depth[cur], depth)
	}
	for _, root := range td.roots {
		ts := &td.live[root]
		if ts.first < 0 {
			*ts = treeState{first: now}
			td.active = append(td.active, root)
		}
		spread := td.spread[root]
		ts.last = now
		ts.cycles += int64(spread)
		ts.maxDepth = max(ts.maxDepth, td.depth[root])
		ts.maxSpread = max(ts.maxSpread, spread)
		td.spread[root], td.depth[root] = 0, 0
	}
	td.roots = td.roots[:0]
	td.closeStale(now, lay)
}

// closeStale retires trees that were not observed this cycle.
func (td *treeDetector) closeStale(now int64, lay Layout) {
	kept := td.active[:0]
	for _, root := range td.active {
		ts := &td.live[root]
		if ts.last == now {
			kept = append(kept, root)
			continue
		}
		if len(td.finished) == cap(td.finished) {
			// Only the top K can reach a report: the order is total,
			// so trimming early never drops one of them.
			sortTrees(td.finished)
			td.finished = td.finished[:td.topK]
		}
		td.finished = append(td.finished, ts.tree(root, lay))
		ts.first = -1
	}
	td.active = kept
}

func (ts *treeState) tree(root int32, lay Layout) Tree {
	t := Tree{
		Depth: int(ts.maxDepth), Spread: int(ts.maxSpread),
		FirstCycle: ts.first, LastCycle: ts.last, BlockedCycles: ts.cycles,
		RootTerminal: -1,
	}
	if int(root) >= lay.Rings {
		term := int(root) - lay.Rings
		t.RootStage = lay.Stages
		t.RootSwitch = int(lay.TermSwitch[term])
		t.RootTerminal = term
	} else {
		t.RootStage = int(lay.RingStage[root])
		t.RootSwitch = int(lay.RingSwitch[root])
	}
	return t
}

// report returns the top-K trees, the finished ones and those still
// live as they stand, leaving the detector unchanged.
func (td *treeDetector) report(lay Layout) []Tree {
	out := append([]Tree(nil), td.finished...)
	for _, root := range td.active {
		out = append(out, td.live[root].tree(root, lay))
	}
	sortTrees(out)
	if len(out) > td.topK {
		out = out[:td.topK]
	}
	return out
}

// sortTrees orders by blocked ring-cycles (the tree's total cost), then
// by every other field, so the order is a function of the set of trees
// alone and reports are reproducible.
func sortTrees(trees []Tree) {
	slices.SortFunc(trees, func(a, b Tree) int {
		return cmp.Or(
			cmp.Compare(b.BlockedCycles, a.BlockedCycles),
			cmp.Compare(a.FirstCycle, b.FirstCycle),
			cmp.Compare(a.RootStage, b.RootStage),
			cmp.Compare(a.RootSwitch, b.RootSwitch),
			cmp.Compare(a.RootTerminal, b.RootTerminal),
			cmp.Compare(a.LastCycle, b.LastCycle),
			cmp.Compare(b.Depth, a.Depth),
			cmp.Compare(b.Spread, a.Spread),
		)
	})
}
