package dilatedsim

import (
	"fmt"
	"math"

	"edn/internal/dilated"
	"edn/internal/queuesim"
	"edn/internal/topology"
)

// Fabric validates dcfg and builds the dilated delta's fabric:
// its descriptor over the delta skeleton's interstage tables expanded
// to sub-wire labels (the O(ports*d) arrays a network build spends its
// time on), labelled by dcfg. One Fabric can back any number of
// concurrently running networks; networks that share it are bit-for-bit
// identical to networks that built their own.
func Fabric(dcfg dilated.Config) (*queuesim.Fabric, error) {
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
	return &queuesim.Fabric{Name: "dilatedsim", Label: dcfg, Stages: stages(dcfg, delta)}, nil
}

// stages returns the dilated delta's descriptor: l switch stages whose
// buckets hold d sub-wires (stage 1's switches take single-wire input
// ports), then the output ports as a retire stage with one bucket per
// switch — each port retires at most one packet per cycle from the d
// sub-wires of its final link group.
func stages(dcfg dilated.Config, delta topology.Config) []topology.Stage {
	b, d, l := dcfg.B, dcfg.D, dcfg.L
	ports := dcfg.Ports()
	logB := topology.Log2(b)
	st := make([]topology.Stage, l+1)
	for s := 1; s <= l; s++ {
		width := b * d
		if s == 1 {
			width = b
		}
		tab := delta.InterstageTable(s) // nil at s == l: groups feed ports
		// At d == 1 the sub-wire labels are the group labels.
		if tab != nil && d > 1 {
			sub := make([]int32, ports*d)
			for o := range sub {
				sub[o] = tab[o/d]*int32(d) + int32(o%d)
			}
			tab = sub
		}
		st[s-1] = topology.Stage{
			Switches: ports / b, Width: width, Buckets: b, Wires: d,
			Shift: uint((l - s) * logB), Mask: uint32(b - 1), Table: tab,
		}
	}
	st[l] = topology.Stage{Switches: ports, Width: d, Buckets: 1, Wires: 1}
	return st
}
