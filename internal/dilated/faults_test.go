package dilated_test

import (
	"testing"

	"edn/internal/dilated"
	"edn/internal/dilatedsim"
	"edn/internal/faults"
)

// subWire is sub-wire (boundary bd, group g, wire w) of cfg.
func subWire(cfg dilated.Config, bd, g, w int) faults.PortID {
	return faults.PortID{Stage: bd, Switch: g / cfg.B, Bucket: g % cfg.B, Wire: w}
}

func TestCompileValidation(t *testing.T) {
	cfg, err := dilated.New(2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []faults.PortID{
		subWire(cfg, 0, 0, 0),
		subWire(cfg, 4, 0, 0),
		subWire(cfg, 1, -1, 0),
		subWire(cfg, 1, cfg.Ports(), 0),
		subWire(cfg, 1, 0, 2),
		subWire(cfg, 1, 0, -1),
	} {
		if _, err := dilatedsim.Compile(cfg, faults.Set{Ports: []faults.PortID{id}}); err == nil {
			t.Errorf("%+v should not compile", id)
		}
	}
	// Duplicates are idempotent.
	dup := faults.Set{Ports: []faults.PortID{
		subWire(cfg, 1, 3, 1),
		subWire(cfg, 1, 3, 1),
	}}
	m, err := dilatedsim.Compile(cfg, dup)
	if err != nil {
		t.Fatal(err)
	}
	if m.DeadPorts() != 1 {
		t.Errorf("duplicate sub-wire counted %d times", m.DeadPorts())
	}
}
