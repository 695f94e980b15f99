package cliutil

import (
	"flag"
	"fmt"
	"io"

	"edn/internal/dilated"
	"edn/internal/topology"
)

// DilatedFlag registers the shared -dilated comparison flag with the
// wording the sweep subcommands (edn latency, faults, lifetime, loop)
// present identically: run the EDN's equal-redundancy dilated delta
// counterpart next to the EDN measurement. what names the comparison
// each subcommand adds ("measured saturation curve", "analytic sub-wire
// model", ...).
func DilatedFlag(fs *flag.FlagSet, what string) *bool {
	return fs.Bool("dilated", false,
		"also evaluate the equal-redundancy dilated delta counterpart ("+what+")")
}

// DilatedCounterpart resolves the dilated delta comparable to cfg —
// same port count, dilation equal to the bucket capacity — wrapping the
// failure in flag-level context so every subcommand reports it uniformly.
func DilatedCounterpart(cfg topology.Config) (dilated.Config, error) {
	dcfg, err := dilated.Counterpart(cfg)
	if err != nil {
		return dilated.Config{}, fmt.Errorf("-dilated: %w", err)
	}
	return dcfg, nil
}

// DilatedHeader writes the standard table-format counterpart line: the
// counterpart's identity, port count and the Section 1 wire-cost ratio
// against the EDN.
func DilatedHeader(w io.Writer, cfg topology.Config, dcfg dilated.Config) {
	fmt.Fprintf(w, "dilated counterpart %v — %d ports, %d wires vs EDN %d (%.1fx)\n",
		dcfg, dcfg.Ports(), dcfg.WireCount(), cfg.WireCount(),
		float64(dcfg.WireCount())/float64(cfg.WireCount()))
}
