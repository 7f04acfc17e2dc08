package gar

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"garfield/internal/tensor"
)

// Tests of the column-tile kernel (tile.go) against referenceCoordinate, the
// per-column definition in reference_test.go.

// TestNetworksSortAndSelect checks the generated networks by the zero-one
// principle: a comparator network that sorts all 2^n inputs of zeros and
// ones sorts every input. All 2^n columns run as one tile, so the row-wise
// comparator loops are what is exercised. The pruned network must leave the
// middle rows exactly as the full sort does. Above n = 12 the exhaustive
// check is too large; random columns cover the rest of the table.
func TestNetworksSortAndSelect(t *testing.T) {
	rng := tensor.NewRNG(17)
	for n := 1; n <= tileMaxN; n++ {
		sorting, median := networks(n)
		w := 1 << 12
		exhaustive := n <= 12
		if exhaustive {
			w = 1 << n
		}
		full := make([]float64, n*w)
		for c := 0; c < w; c++ {
			for r := 0; r < n; r++ {
				if exhaustive {
					full[r*w+c] = float64(c >> r & 1)
				} else {
					full[r*w+c] = float64(rng.Intn(7)) // coarse: many ties
				}
			}
		}
		pruned := append([]float64(nil), full...)
		runNetwork(full, w, sorting)
		runNetwork(pruned, w, median)
		for c := 0; c < w; c++ {
			for r := 1; r < n; r++ {
				if full[(r-1)*w+c] > full[r*w+c] {
					t.Fatalf("n=%d: column %d not sorted at row %d", n, c, r)
				}
			}
		}
		wantMed, gotMed := make([]float64, w), make([]float64, w)
		medianRows(wantMed, full, n, w)
		medianRows(gotMed, pruned, n, w)
		for c := range wantMed {
			if math.Float64bits(wantMed[c]) != math.Float64bits(gotMed[c]) {
				t.Fatalf("n=%d: pruned network median %v != full sort median %v at column %d", n, gotMed[c], wantMed[c], c)
			}
		}
		for _, k := range median {
			if k.live == 0 || k.lo >= k.hi || int(k.hi) >= n {
				t.Fatalf("n=%d: malformed comparator %+v", n, k)
			}
		}
	}
}

// coordinateCase is one (rule, n, f) under differential test: run is the
// production path writing into dst, spec is what the reference computes.
type coordinateCase struct {
	name string
	spec coordSpec
	byz  int // how many trailing inputs an adversary owns
	run  func(dst tensor.Vector, in []tensor.Vector) (tensor.Vector, error)
}

// aggregate runs the case into a destination full of NaN: the kernel owes
// every coordinate a write, whatever the previous round left there.
func (tc coordinateCase) aggregate(t testing.TB, in []tensor.Vector) tensor.Vector {
	t.Helper()
	out, err := tc.run(tensor.Filled(len(in[0]), math.NaN()), in)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// coordinateCases lists the four users of the coordinate kernel over rows
// inputs at Byzantine count f: the three coordinate-wise rules through New,
// and Bulyan's coordinate phase (the median, then the rows-2f closest)
// straight on the arena, since through the rule it only ever sees what the
// selection phase picked.
func coordinateCases(t testing.TB, rows, f int) []coordinateCase {
	var cases []coordinateCase
	for _, rc := range []struct {
		name string
		spec coordSpec
	}{
		{NameMedian, coordSpec{median: true}},
		{NameTrimmedMean, coordSpec{trim: f}},
		{NamePhocas, coordSpec{trim: f, keep: rows - f}},
	} {
		r, err := New(rc.name, rows, f)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, coordinateCase{name: rc.name, spec: rc.spec, byz: f, run: r.AggregateInto})
	}
	spec := coordSpec{median: true, keep: rows - 2*f}
	a := newArena(rows)
	return append(cases, coordinateCase{name: "bulyan-phase", spec: spec, byz: f, run: func(dst tensor.Vector, in []tensor.Vector) (tensor.Vector, error) {
		a.runCoordinate(spec, dst, in)
		return dst, nil
	}})
}

// tileInputs is attackInputs plus the value kinds only the coordinate
// kernel cares about; the last byz inputs follow the named behaviour.
func tileInputs(t *testing.T, kind string, n, byz, d int, seed uint64) []tensor.Vector {
	t.Helper()
	switch kind {
	case "inf", "zeros":
	default:
		return attackInputs(t, kind, n, byz, d, seed)
	}
	rng := tensor.NewRNG(seed)
	in := make([]tensor.Vector, n)
	for i := range in {
		in[i] = rng.NormalVector(d, 0, 1)
	}
	for i := range in {
		for c := range in[i] {
			switch {
			case kind == "inf" && i >= n-byz:
				in[i][c] = math.Inf(1 - 2*((i+c)%2))
			case kind == "zeros" && (i+c)%3 != 0:
				// Mixed -0 / +0 among the honest values too: ties the
				// network orders (-0 first) and `<` does not.
				in[i][c] = math.Copysign(0, float64(1-2*((i+c)%2)))
			}
		}
	}
	return in
}

// assertMatchesReference compares got with want bit for bit, except that all
// NaNs are one value (which payload survives Inf-Inf is the compiler's
// choice) and a column holding both -0 and +0 only has to match by ==: the
// network orders -0 before +0, `<` leaves them where they were.
func assertMatchesReference(t testing.TB, label string, in []tensor.Vector, got, want tensor.Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: dim %d != %d", label, len(got), len(want))
	}
	for c := range got {
		if math.Float64bits(got[c]) == math.Float64bits(want[c]) || (got[c] != got[c] && want[c] != want[c]) {
			continue
		}
		var neg, pos bool
		for _, v := range in {
			if v[c] == 0 {
				neg = neg || math.Signbit(v[c])
				pos = pos || !math.Signbit(v[c])
			}
		}
		if neg && pos && got[c] == want[c] {
			continue
		}
		t.Fatalf("%s: coordinate %d: kernel %v (%x) != reference %v (%x)",
			label, c, got[c], math.Float64bits(got[c]), want[c], math.Float64bits(want[c]))
	}
}

// TestCoordinateKernelMatchesReference is the differential test of the
// kernel: every user of it, n on both sides of tileMaxN, f at 0 and at the
// rule's maximum, widths around the tile width, and adversarial value kinds,
// against the per-column reference.
func TestCoordinateKernelMatchesReference(t *testing.T) {
	kinds := []string{"honest", "huge", "duplicate", "reversed", "inf", "zeros"}
	step := 1
	if testing.Short() {
		step = 3
	}
	for n := 1; n <= 40; n += step {
		w := 64 // per-column path: no tile to straddle
		if n <= tileMaxN {
			w = tileWidth(n)
		}
		for _, f := range []int{0, (n - 1) / 2} {
			for _, tc := range coordinateCases(t, n, f) {
				for _, kind := range kinds {
					// Every width on honest inputs, one straddling width
					// on the rest.
					dims := []int{w + 1}
					if kind == "honest" {
						dims = []int{1, w - 1, w, w + 1, 3*w + 5}
					}
					for _, d := range dims {
						in := tileInputs(t, kind, n, tc.byz, d, uint64(1000*n+f))
						label := fmt.Sprintf("%s n=%d f=%d d=%d %s", tc.name, n, f, d, kind)
						assertMatchesReference(t, label, in, tc.aggregate(t, in), referenceCoordinate(tc.spec, in))
					}
				}
			}
		}
	}
}

// TestClosestMeanTieOrder pins the summation order closestMean guarantees on
// the two cases a plain outward merge gets wrong, with values chosen so the
// order decides the rounding.
func TestClosestMeanTieOrder(t *testing.T) {
	const two53 = 1 << 53
	for _, tc := range []struct {
		why    string
		col    []float64
		center float64
		keep   int
		want   float64
	}{
		{
			// Every distance to 1e300 rounds to 1e300: one run of ties
			// below the centre, summed by ascending rank, (1+1)+2^53. From
			// the centre outwards it would be (2^53+1)+1 = 2^53.
			why: "equal rounded distances on the lower side",
			col: []float64{1, 1, two53}, center: 1e300, keep: 3, want: (two53 + 2) / 3.0,
		},
		{
			// -1 and +1 tie across the centre: the lower rank goes first,
			// (2^-53 - 1) + 1 = 2^-53, where (2^-53 + 1) - 1 = 0.
			why: "a tie across the centre",
			col: []float64{-3, -1, 0x1p-53, 1, 3}, center: 0, keep: 3, want: 0x1p-53 / 3.0,
		},
	} {
		if ref := referenceClosestMean(tc.col, tc.center, tc.keep); ref != tc.want {
			t.Fatalf("%s: the reference itself gives %v, want %v", tc.why, ref, tc.want)
		}
		if got := closestMean(tc.col, tc.center, tc.keep); got != tc.want {
			t.Errorf("%s: closestMean = %v, want %v", tc.why, got, tc.want)
		}
	}
}

// TestCoordinateRulesSurviveNaN: NaN is an input an adversary authors. With
// at most f inputs all-NaN, or a mix of NaN and both infinities, every rule
// on the coordinate kernel still returns a finite vector, on the tile path
// and on the per-column path. (TestSelectionRulesSurviveNonFinite is the same
// property for the distance-based rules.)
func TestCoordinateRulesSurviveNaN(t *testing.T) {
	poison := map[string]func(i, c int) float64{
		"nan":   func(i, c int) float64 { return math.NaN() },
		"mixed": func(i, c int) float64 { return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[(i+c)%3] },
	}
	for _, sh := range []struct {
		rule string
		n, f int
	}{
		{NameMedian, 9, 4}, {NameMedian, 10, 4}, {NameMedian, 35, 17}, {NameMedian, 36, 17},
		{NameTrimmedMean, 9, 4}, {NameTrimmedMean, 35, 17},
		{NamePhocas, 9, 4}, {NamePhocas, 35, 17},
		{NameBulyan, 11, 2}, {NameBulyan, 41, 4}, // k = 7 on the tile path, k = 33 above it
	} {
		for kind, value := range poison {
			for _, byz := range []int{1, sh.f} {
				in := genInputs(uint64(sh.n), sh.n, 300)
				for i := sh.n - byz; i < sh.n; i++ {
					for c := range in[i] {
						in[i][c] = value(i, c)
					}
				}
				r, err := New(sh.rule, sh.n, sh.f)
				if err != nil {
					t.Fatal(err)
				}
				out, err := r.Aggregate(in)
				if err != nil {
					t.Fatal(err)
				}
				if !out.IsFinite() {
					t.Errorf("%s n=%d f=%d with %d %s inputs: output is not finite", sh.rule, sh.n, sh.f, byz, kind)
				}
			}
		}
	}
}

// TestTileKernelSharesBitIdentical runs the kernel split into 1, 2 and 3
// contiguous shares over a d that is a multiple of neither the tile width
// nor the share count; tiles restart at every share boundary, and the output
// must not notice.
func TestTileKernelSharesBitIdentical(t *testing.T) {
	const n, f, d = 9, 2, 5003
	if d%tileWidth(n) == 0 || d*4*n < minParallelWork {
		t.Fatalf("d=%d does not straddle tiles on the pooled path", d)
	}
	in := attackInputs(t, "duplicate", n, f, d, 13)
	for _, tc := range coordinateCases(t, n, f) {
		want := referenceCoordinate(tc.spec, in)
		for shares := 1; shares <= 3; shares++ {
			prev := runtime.GOMAXPROCS(shares)
			a := newArena(n) // sizes its per-share scratch from GOMAXPROCS
			got := tensor.Filled(d, math.NaN())
			a.runCoordinate(tc.spec, got, in)
			runtime.GOMAXPROCS(prev)
			if len(a.shareTiles) != shares {
				t.Fatalf("%d shares of tile scratch, want %d", len(a.shareTiles), shares)
			}
			assertBitIdentical(t, tc.name, fmt.Sprintf("%d shares", shares), got, want)
		}
	}
}

// TestTileScratchIsLazy: the rules that never run a coordinate kernel must
// not pay for tile scratch, and neither must n above the network table.
func TestTileScratchIsLazy(t *testing.T) {
	run := func(r Rule, a *arena, n int) {
		t.Helper()
		if _, err := r.Aggregate(attackInputs(t, "honest", n, 0, 8, 1)); err != nil {
			t.Fatal(err)
		}
		if a.shareTiles != nil {
			t.Errorf("%s over %d inputs allocated tile scratch", r.Name(), n)
		}
	}
	krum, _ := NewKrum(9, 2)
	run(krum, krum.s, 9)
	multiKrum, _ := NewMultiKrum(9, 2)
	run(multiKrum, multiKrum.s, 9)
	mda, _ := NewMDA(9, 2)
	run(mda, mda.s, 9)
	big, _ := NewMedian(tileMaxN+1, 0)
	run(big, big.s, tileMaxN+1)
}

// FuzzColumnTile feeds the kernel arbitrary bit patterns — NaNs with
// payloads, infinities, denormals, both zeros — at arbitrary (n, d): it must
// not panic, must equal the reference, and wherever at most f values of a
// column are non-finite the output coordinate must not be NaN.
func FuzzColumnTile(f *testing.F) {
	nan := math.Float64bits(math.NaN())
	seed := make([]byte, 0, 64)
	for _, b := range []uint64{nan, math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)), 0, 1 << 63, 1, math.Float64bits(1.5), math.Float64bits(-2)} {
		seed = binary.LittleEndian.AppendUint64(seed, b)
	}
	f.Add(uint8(9), uint16(5), seed)
	f.Add(uint8(4), uint16(1), seed[:16])
	f.Add(uint8(33), uint16(3), seed)
	f.Add(uint8(1), uint16(600), []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, nRaw uint8, dRaw uint16, raw []byte) {
		n := int(nRaw)%40 + 1
		d := int(dRaw)%1200 + 1
		// Input i, coordinate c is the (i*d+c)-th float64 of raw, cycling;
		// bytes short of a word are dropped, an empty corpus reads as zeros.
		words := len(raw) / 8
		in := make([]tensor.Vector, n)
		for i := range in {
			in[i] = tensor.New(d)
			for c := range in[i] {
				if words > 0 {
					in[i][c] = math.Float64frombits(binary.LittleEndian.Uint64(raw[(i*d+c)%words*8:]))
				}
			}
		}
		byz := (n - 1) / 2
		for _, tc := range coordinateCases(t, n, byz) {
			got := tc.aggregate(t, in)
			label := fmt.Sprintf("%s n=%d d=%d", tc.name, n, d)
			assertMatchesReference(t, label, in, got, referenceCoordinate(tc.spec, in))
			for c := range got {
				bad := 0
				for _, v := range in {
					if math.IsNaN(v[c]) || math.IsInf(v[c], 0) {
						bad++
					}
				}
				if bad <= tc.byz && got[c] != got[c] {
					t.Fatalf("%s: coordinate %d is NaN with %d <= f=%d non-finite inputs", label, c, bad, tc.byz)
				}
			}
		}
	})
}
