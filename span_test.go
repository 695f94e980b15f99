package edn

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestSpanCollectorNilSafe(t *testing.T) {
	var c *SpanCollector
	s := c.Start("anything")
	c.SetAttr(s, "k", "v")
	c.ObserveStage("shard", 0, 10, time.Now(), time.Millisecond)
	c.End(s)
	if got := c.Finish(); got != nil {
		t.Fatalf("nil collector returned a tree: %+v", got)
	}
	var nilSpan *Span
	nilSpan.Walk(func(int, *Span) { t.Fatal("walked a nil span") })
}

func TestSpanCollectorShardOrderIsScheduleIndependent(t *testing.T) {
	c := NewSpanCollector("job")
	exec := c.Start("execute")
	// Shard observations arrive in scrambled goroutine order; merge and
	// observe arrive afterwards, sequentially.
	var wg sync.WaitGroup
	for _, shard := range []int{3, 0, 2, 1} {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c.ObserveStage("shard", w, 100, time.Now(), time.Millisecond)
		}(shard)
	}
	wg.Wait()
	c.ObserveStage("merge", -1, 0, time.Now(), time.Microsecond)
	c.ObserveStage("observe", -1, 400, time.Now(), time.Microsecond)
	c.End(exec)
	root := c.Finish()

	if len(root.Children) != 1 || root.Children[0] != exec {
		t.Fatalf("root shape wrong: %+v", root.Children)
	}
	want := []string{"shard", "shard", "shard", "shard", "merge", "observe"}
	if len(exec.Children) != len(want) {
		t.Fatalf("execute has %d children, want %d", len(exec.Children), len(want))
	}
	for i, child := range exec.Children {
		if child.Name != want[i] {
			t.Errorf("child %d = %q, want %q", i, child.Name, want[i])
		}
		if i < 4 {
			if got := child.Attrs["shard"]; got != string(rune('0'+i)) {
				t.Errorf("shard child %d has shard attr %q", i, got)
			}
			if got := child.Attrs["cycles"]; got != "100" {
				t.Errorf("shard child %d cycles = %q", i, got)
			}
		}
	}
}

func TestSpanCollectorFinishIdempotent(t *testing.T) {
	c := NewSpanCollector("job")
	s := c.Start("validate", "mode", "estimate")
	c.End(s)
	first := c.Finish()
	second := c.Finish()
	if first != second {
		t.Fatal("Finish returned different trees")
	}
	if first.DurationNS <= 0 {
		t.Errorf("root duration not set: %d", first.DurationNS)
	}
	if s.Attrs["mode"] != "estimate" {
		t.Errorf("start attrs lost: %+v", s.Attrs)
	}
}

// TestLifetimeJobsReportShardStages pins that both lifetime families,
// open- and closed-loop, on both networks report one "shard" span per
// shard and one "merge" span under their point span, and that tracing
// leaves the JobResult byte-identical.
func TestLifetimeJobsReportShardStages(t *testing.T) {
	geo := &GeometrySpec{A: 4, B: 2, C: 2, L: 2}
	sim := SimSpec{Warmup: 20, Seed: 3, Shards: 2}
	life := &LifetimeSpec{Epochs: 3, EpochCycles: 30, MTBF: 12, MTTR: 3, Load: 0.4}
	for _, spec := range []JobSpec{
		{Mode: JobLifetime, Geometry: geo, Lifetime: life, Sim: sim},
		{Mode: JobLifetime, Engine: EngineDilated, Geometry: geo, Lifetime: life, Sim: sim},
		{Mode: JobClosedLoopLifetime, Geometry: geo, Lifetime: life, Loop: &ClosedLoopSpec{Window: 2}, Sim: sim},
		{Mode: JobClosedLoopLifetime, Engine: EngineDilated, Geometry: geo, Lifetime: life, Loop: &ClosedLoopSpec{Window: 2}, Sim: sim},
	} {
		engine := spec.Engine
		if engine == "" {
			engine = EngineEDN
		}
		t.Run(spec.Mode+"/"+engine, func(t *testing.T) {
			tr := NewSpanCollector("job")
			traced, err := RunJob(context.Background(), spec, RunOptions{Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			counts := map[string]int{}
			var points int
			tr.Finish().Walk(func(_ int, s *Span) {
				if s.Name != "point" {
					return
				}
				points++
				for _, c := range s.Children {
					counts[c.Name]++
				}
			})
			if points != 1 || counts["shard"] != 2 || counts["merge"] != 1 {
				t.Fatalf("got %d point spans with children %v, want 1 point with 2 shard and 1 merge", points, counts)
			}
			plain, err := Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			a, _ := json.Marshal(traced)
			b, _ := json.Marshal(plain)
			if string(a) != string(b) {
				t.Fatal("tracing changed the JobResult")
			}
		})
	}
}
