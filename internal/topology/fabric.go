package topology

import (
	"fmt"
	"math"
)

// Stage describes one switch stage of a fabric: Switches switches of
// Width input wires each, whose outputs form Buckets buckets of Wires
// interchangeable wires. A packet's routing digit at the stage is
// (dest >> Shift) & Mask. Output label sw*Buckets*Wires + bucket*Wires
// + k crosses Table (nil = identity) onto the next stage's input wire.
// The last stage of a fabric retires onto terminal sw*Buckets + bucket
// instead: it has one wire per bucket and no table.
//
// A []Stage is a fabric descriptor: the packet engine (internal/queuesim)
// runs it and the fault model (internal/faults) compiles against it, so
// a new topology needs only a descriptor builder. Config.Fabric builds
// the EDN's; internal/dilatedsim builds the dilated delta's.
type Stage struct {
	Switches, Width, Buckets, Wires int
	Shift                           uint
	Mask                            uint32
	Table                           []int32
}

// Fabric validates cfg and returns the EDN's descriptor: l hyperbar
// stages whose buckets hold c wires, then the c x c crossbars as the
// retire stage with c buckets per switch, over freshly materialized
// interstage tables.
func (cfg Config) Fabric() ([]Stage, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for i := 0; i <= cfg.L+1; i++ {
		if w := cfg.WiresAfterStage(i); w > math.MaxInt32 {
			return nil, fmt.Errorf("topology: %v has %d wires in one stage, beyond the simulable limit", cfg, w)
		}
	}
	logB, logC := Log2(cfg.B), Log2(cfg.C)
	st := make([]Stage, cfg.L+1)
	for s := 1; s <= cfg.L; s++ {
		st[s-1] = Stage{
			Switches: cfg.SwitchesInStage(s), Width: cfg.A, Buckets: cfg.B, Wires: cfg.C,
			Shift: uint(logC + (cfg.L-s)*logB), Mask: uint32(cfg.B - 1), Table: cfg.InterstageTable(s),
		}
	}
	st[cfg.L] = Stage{
		Switches: cfg.SwitchesInStage(cfg.L + 1), Width: cfg.C, Buckets: cfg.C, Wires: 1,
		Mask: uint32(cfg.C - 1),
	}
	return st, nil
}
