package main

import (
	"math"
	"testing"

	"garfield/internal/rpc"
	"garfield/internal/tensor"
)

func TestSelfTime(t *testing.T) {
	parent := Span{Start: 100, End: 200}
	cases := []struct {
		name     string
		children []Span
		want     int64
	}{
		{"no children", nil, 100},
		{"one nested child", []Span{{Start: 120, End: 150}}, 70},
		{"two disjoint children", []Span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{"concurrent children count once", []Span{{Start: 110, End: 160}, {Start: 130, End: 180}, {Start: 140, End: 150}}, 30},
		{"child outliving the parent is clipped", []Span{{Start: 190, End: 260}}, 90},
		{"child starting before the parent is clipped", []Span{{Start: 50, End: 130}}, 70},
		{"unfinished child covers to the parent's end", []Span{{Start: 150, End: 0}}, 50},
		{"child wholly outside covers nothing", []Span{{Start: 210, End: 250}}, 100},
		{"children covering everything", []Span{{Start: 90, End: 150}, {Start: 150, End: 210}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func gradReq(from string, step uint32, vec tensor.Vector) rpc.Request {
	return rpc.Request{Kind: rpc.KindGetGradient, Step: step, From: from, Vec: vec}
}

func TestHandleFindsItsPull(t *testing.T) {
	tr := newTracer()
	tr.start()
	v0, v1 := tensor.New(4), tensor.New(4)

	// Two servers pull the same step; each handle belongs to its caller's
	// pull.
	p0 := tr.beginPull("server-0", gradReq("", 0, v0), 3)
	p1 := tr.beginPull("server-1", gradReq("", 0, v1), 3)
	h0 := tr.beginHandle("worker-0", gradReq("server-0", 0, v0))
	h1 := tr.beginHandle("worker-0", gradReq("server-1", 0, v1))
	spans := tr.snapshot()
	if spans[h0-1].Parent != p0 || spans[h1-1].Parent != p1 {
		t.Fatalf("handles parented to %d and %d, want %d and %d", spans[h0-1].Parent, spans[h1-1].Parent, p0, p1)
	}
	if spans[h0-1].From != "server-0" || spans[h0-1].Node != "worker-0" || spans[h0-1].Kind != "gradient" {
		t.Errorf("handle attributes: %+v", spans[h0-1])
	}

	// A different kind at the same step is a different pull.
	pm := tr.beginPull("server-0", rpc.Request{Kind: rpc.KindGetModel, Step: 0}, 2)
	hm := tr.beginHandle("server-1", rpc.Request{Kind: rpc.KindGetModel, Step: 0, From: "server-0"})
	if got := tr.snapshot()[hm-1].Parent; got != pm {
		t.Errorf("model handle parented to %d, want the model pull %d", got, pm)
	}

	// A straggler served after its pull returned still finds it.
	tr.end(p0)
	late := tr.beginHandle("worker-2", gradReq("server-0", 0, tensor.New(4)))
	if got := tr.snapshot()[late-1].Parent; got != p0 {
		t.Errorf("straggler parented to %d, want the ended pull %d", got, p0)
	}

	// The next segment reuses step 0: handles go to the newer pull.
	tr.endSegment()
	p0b := tr.beginPull("server-0", gradReq("", 0, v0), 3)
	hb := tr.beginHandle("worker-0", gradReq("server-0", 0, v0))
	if got := tr.snapshot()[hb-1].Parent; got != p0b {
		t.Errorf("handle after a step reuse parented to %d, want the newest pull %d", got, p0b)
	}

	// A request nobody was seen pulling is an orphan, not a crash.
	orphan := tr.beginHandle("worker-1", gradReq("server-9", 7, nil))
	if got := tr.snapshot()[orphan-1]; got.Parent != 0 || got.Round != 0 {
		t.Errorf("orphan handle got parent %d round %d", got.Parent, got.Round)
	}
}

func TestGradientFindsItsHandle(t *testing.T) {
	tr := newTracer()
	tr.start()
	va, vb := tensor.New(8), tensor.New(8)
	tr.beginPull("server-0", gradReq("", 3, va), 2)
	ha := tr.beginHandle("worker-0", gradReq("server-0", 3, va))
	hb := tr.beginHandle("worker-1", gradReq("server-0", 3, vb))
	gb := tr.beginGradient(vb)
	ga := tr.beginGradient(va)
	spans := tr.snapshot()
	if spans[ga-1].Parent != ha || spans[gb-1].Parent != hb {
		t.Fatalf("gradients parented to %d and %d, want %d and %d", spans[ga-1].Parent, spans[gb-1].Parent, ha, hb)
	}
	if spans[gb-1].Node != "worker-1" || spans[gb-1].Step != 3 || spans[gb-1].Round != spans[hb-1].Round {
		t.Errorf("gradient did not inherit its handle's node, step and round: %+v", spans[gb-1])
	}
	// Once the handle ended, its vector no longer names it.
	tr.endHandle(ha, gradReq("server-0", 3, va))
	if g := tr.beginGradient(va); tr.snapshot()[g-1].Parent != 0 {
		t.Error("gradient matched a handle that had already ended")
	}
}

func TestRoundBoundaries(t *testing.T) {
	tr := newTracer()
	// Nothing is recorded before start, and ending span 0 is harmless.
	if id := tr.beginPull("server-0", gradReq("", 0, nil), 1); id != 0 {
		t.Fatalf("recorded span %d before start", id)
	}
	tr.end(0)
	tr.endHandle(0, rpc.Request{})
	tr.start()

	// Round 1: two replicas pull step 0, then server-0 pulls models.
	a := tr.beginPull("server-0", gradReq("", 0, nil), 1)
	b := tr.beginPull("server-1", gradReq("", 0, nil), 1)
	c := tr.beginPull("server-0", rpc.Request{Kind: rpc.KindGetModel, Step: 41}, 1)
	// Round 2 starts with the first pull of step 1, whoever issues it.
	d := tr.beginPull("server-1", gradReq("", 1, nil), 1)
	e := tr.beginPull("server-0", gradReq("", 1, nil), 1)
	tr.endSegment()
	// A new segment starts over at step 0 and still opens a new round.
	f := tr.beginPull("server-0", gradReq("", 0, nil), 1)
	tr.endSegment()

	spans := tr.snapshot()
	round := func(id int) int { return spans[id-1].Round }
	if round(a) != round(b) || round(a) != round(c) {
		t.Errorf("pulls of one round landed in rounds %d, %d, %d", round(a), round(b), round(c))
	}
	if round(d) == round(a) || round(d) != round(e) {
		t.Errorf("step change did not start one new round: %d then %d, %d", round(a), round(d), round(e))
	}
	if round(f) == round(e) {
		t.Error("a new segment reused the previous segment's round")
	}
	var rounds int
	for _, s := range spans {
		if s.Name == spanRound {
			rounds++
			if s.End == 0 || s.Round != s.ID || s.Parent != 0 {
				t.Errorf("round span not closed or not its own root: %+v", s)
			}
		} else if s.Parent != s.Round {
			t.Errorf("pull %d parented to %d, want its round %d", s.ID, s.Parent, s.Round)
		}
	}
	if rounds != 3 {
		t.Errorf("%d round spans, want 3", rounds)
	}
}

func TestAnalyze(t *testing.T) {
	const ms = 1_000_000
	// Two identical 10 ms rounds. In each, server-0 pulls for 8 ms from two
	// workers whose handles overlap; each handle holds a gradient. server-1
	// pulls too but is off the blocking path.
	var spans []Span
	add := func(s Span) int {
		s.ID = len(spans) + 1
		spans = append(spans, s)
		return s.ID
	}
	for r := int64(0); r < 2; r++ {
		base := r * 10 * ms
		round := add(Span{Name: spanRound, Start: base, End: base + 10*ms})
		pull := add(Span{Name: spanPull, Parent: round, Node: "server-0", Kind: "gradient", Start: base, End: base + 8*ms})
		h1 := add(Span{Name: spanHandle, Parent: pull, Start: base + 1*ms, End: base + 5*ms})
		h2 := add(Span{Name: spanHandle, Parent: pull, Start: base + 2*ms, End: base + 7*ms})
		add(Span{Name: spanGradient, Parent: h1, Start: base + 1*ms, End: base + 4*ms})
		add(Span{Name: spanGradient, Parent: h2, Start: base + 3*ms, End: base + 7*ms})
		add(Span{Name: spanPull, Parent: round, Node: "server-1", Kind: "gradient", Start: base, End: base + 9*ms})
		add(Span{Name: spanPull, Parent: round, Node: "server-0", Kind: "model", Start: base + 8*ms, End: base + 9*ms})
	}
	// An unfinished straggler handle is ignored.
	add(Span{Name: spanHandle, Parent: 2, Start: 9 * ms})

	m, meanRound := analyze(spans, func(caller string) bool { return caller == "server-0" }, 2)
	if meanRound != 10 {
		t.Errorf("mean round %v ms, want 10", meanRound)
	}
	want := map[string]float64{
		"model.gradient_ms":      3.5, // (3 + 4) / 2 calls
		"model.gradient_calls":   2,
		"model.useful_share":     1,
		"core.handle_ms":         9, // 4 + 5
		"core.handle_self_ms":    2, // (4 - 3) + (5 - 4)
		"rpc.pull_ms":            9, // 8 + 1, server-1's pull excluded
		"rpc.pull_ms.gradient":   8,
		"rpc.pull_ms.model":      1,
		"rpc.pull_ms.shard_part": 0,
		"rpc.tail_ms":            2, // gradient pull: 8 - 7; model pull: no handle seen, all of it
		"core.round_ms_p50":      10,
		"core.round_ms_p90":      10,
	}
	for name, w := range want {
		if got, ok := m[name]; !ok || math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
}
