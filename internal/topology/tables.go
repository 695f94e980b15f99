package topology

import "fmt"

// Tables is the prebuilt, immutable routing geometry of one Config: the
// flat interstage permutation tables every simulation engine indexes in
// its cycle hot loop. Building them is the dominant construction cost
// of a short run — O(total wires) — while using them is read-only, so
// one Tables value can back any number of concurrently running engines
// (the serve-layer geometry cache leans on exactly this property).
//
// A Tables is safe for concurrent use once built; nothing mutates it.
type Tables struct {
	cfg   Config
	gamma [][]int32 // gamma[s-1] = InterstageTable(s); nil = identity
	bytes int64
}

// NewTables validates cfg and materializes every interstage table.
// Engines built from the same Tables value share the slices (no copy)
// and are bit-for-bit identical to engines that built their own.
func NewTables(cfg Config) (*Tables, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	maxW := cfg.Inputs()
	for i := 0; i <= cfg.L+1; i++ {
		if w := cfg.WiresAfterStage(i); w > maxW {
			maxW = w
		}
	}
	if maxW > maxInt32 {
		return nil, fmt.Errorf("topology: %v has %d wires in one stage, beyond the simulable limit", cfg, maxW)
	}
	t := &Tables{cfg: cfg, gamma: make([][]int32, cfg.L)}
	for s := 1; s <= cfg.L; s++ {
		t.gamma[s-1] = cfg.InterstageTable(s)
		t.bytes += int64(len(t.gamma[s-1])) * 4
	}
	return t, nil
}

const maxInt32 = 1<<31 - 1

// Config returns the configuration the tables were built for.
func (t *Tables) Config() Config { return t.cfg }

// Interstage returns the flat permutation table wiring the outputs of
// stage s (1 <= s <= L) to the inputs of stage s+1; nil means the
// identity, exactly as Config.InterstageTable reports it. The returned
// slice is shared and must not be written.
func (t *Tables) Interstage(s int) []int32 {
	if s < 1 || s > t.cfg.L {
		panic(fmt.Sprintf("topology: interstage %d out of range [1,%d]", s, t.cfg.L))
	}
	return t.gamma[s-1]
}

// Bytes returns the memory footprint of the table payload, the unit of
// the serve-layer cache's byte budget.
func (t *Tables) Bytes() int64 { return t.bytes }

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

// Fabric returns the EDN's descriptor: l hyperbar stages whose buckets
// hold c wires, then the c x c crossbars as the retire stage with c
// buckets per switch. The interstage tables are t's when t is non-nil
// (shared, never copied) and materialized otherwise. cfg must be valid.
func (cfg Config) Fabric(t *Tables) ([]Stage, error) {
	if t != nil && t.cfg != cfg {
		return nil, fmt.Errorf("topology: tables built for %v, network is %v", t.cfg, cfg)
	}
	for i := 0; i <= cfg.L+1; i++ {
		if w := cfg.WiresAfterStage(i); w > maxInt32 {
			return nil, fmt.Errorf("topology: %v has %d wires in one stage, beyond the simulable limit", cfg, w)
		}
	}
	logB, logC := Log2(cfg.B), Log2(cfg.C)
	st := make([]Stage, cfg.L+1)
	for s := 1; s <= cfg.L; s++ {
		var tab []int32
		if t != nil {
			tab = t.Interstage(s)
		} else {
			tab = cfg.InterstageTable(s)
		}
		st[s-1] = Stage{
			Switches: cfg.SwitchesInStage(s), Width: cfg.A, Buckets: cfg.B, Wires: cfg.C,
			Shift: uint(logC + (cfg.L-s)*logB), Mask: uint32(cfg.B - 1), Table: tab,
		}
	}
	st[cfg.L] = Stage{
		Switches: cfg.SwitchesInStage(cfg.L + 1), Width: cfg.C, Buckets: cfg.C, Wires: 1,
		Mask: uint32(cfg.C - 1),
	}
	return st, nil
}
