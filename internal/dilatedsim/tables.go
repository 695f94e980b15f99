package dilatedsim

import (
	"fmt"
	"math"

	"edn/internal/dilated"
	"edn/internal/topology"
)

// Tables is the prebuilt, immutable routing geometry of one dilated
// delta: its interstage tables expanded to sub-wire labels — the
// O(ports*d) arrays New spends its construction time on. One Tables
// value can back any number of concurrently running networks; nothing
// mutates it after construction. The dilated twin of topology.Tables.
type Tables struct {
	dcfg   dilated.Config
	subTab [][]int32 // sub-wire interstage tables; nil = identity
	bytes  int64
}

// NewTables validates dcfg and expands the delta skeleton's interstage
// tables to sub-wire labels. Networks built from the same Tables value
// share the slices (no copy) and are bit-for-bit identical to networks
// that built their own.
func NewTables(dcfg dilated.Config) (*Tables, error) {
	if err := dcfg.Validate(); err != nil {
		return nil, err
	}
	ports := dcfg.Ports()
	if int64(ports)*int64(dcfg.D) > math.MaxInt32 {
		return nil, fmt.Errorf("dilatedsim: %v has %d sub-wires per boundary, beyond the simulable limit", dcfg, int64(ports)*int64(dcfg.D))
	}
	delta, err := topology.New(dcfg.B, dcfg.B, 1, dcfg.L)
	if err != nil {
		return nil, fmt.Errorf("dilatedsim: %v has no delta skeleton: %w", dcfg, err)
	}
	t := &Tables{dcfg: dcfg, subTab: make([][]int32, dcfg.L)}
	for s := 1; s <= dcfg.L; s++ {
		tab := delta.InterstageTable(s) // nil at s == l: groups feed ports
		// At d == 1 the sub-wire labels are the group labels.
		if tab != nil && dcfg.D > 1 {
			sub := make([]int32, ports*dcfg.D)
			for o := range sub {
				sub[o] = tab[o/dcfg.D]*int32(dcfg.D) + int32(o%dcfg.D)
			}
			tab = sub
		}
		t.subTab[s-1] = tab
		t.bytes += int64(len(tab)) * 4
	}
	return t, nil
}

// Config returns the configuration the tables were built for.
func (t *Tables) Config() dilated.Config { return t.dcfg }

// Bytes returns the memory footprint of the table payload, the unit of
// the serve-layer cache's byte budget.
func (t *Tables) Bytes() int64 { return t.bytes }

// fabric returns the dilated delta's descriptor over t: l switch stages
// whose buckets hold d sub-wires (stage 1's switches take single-wire
// input ports), then the output ports as a retire stage with one bucket
// per switch — each port retires at most one packet per cycle from the
// d sub-wires of its final link group.
func (t *Tables) fabric() []topology.Stage {
	b, d, l := t.dcfg.B, t.dcfg.D, t.dcfg.L
	ports := t.dcfg.Ports()
	logB := topology.Log2(b)
	st := make([]topology.Stage, l+1)
	for s := 1; s <= l; s++ {
		width := b * d
		if s == 1 {
			width = b
		}
		st[s-1] = topology.Stage{
			Switches: ports / b, Width: width, Buckets: b, Wires: d,
			Shift: uint((l - s) * logB), Mask: uint32(b - 1), Table: t.subTab[s-1],
		}
	}
	st[l] = topology.Stage{Switches: ports, Width: d, Buckets: 1, Wires: 1}
	return st
}
