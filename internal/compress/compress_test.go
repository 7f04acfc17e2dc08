package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"garfield/internal/tensor"
	"garfield/internal/testutil"
)

func testVector(d int, seed uint64) tensor.Vector {
	rng := tensor.NewRNG(seed)
	return rng.NormalVector(d, 0, 1)
}

// roundTrip compresses v with a fresh compressor and decodes the payload.
func roundTrip(t *testing.T, enc Encoding, k int, v tensor.Vector) tensor.Vector {
	t.Helper()
	c, err := NewCompressor(enc, k)
	if err != nil {
		t.Fatal(err)
	}
	payload := c.Compress(nil, v)
	var out tensor.Vector
	if err := Decode(&out, enc, payload); err != nil {
		t.Fatalf("%v decode: %v", enc, err)
	}
	if len(out) != len(v) {
		t.Fatalf("%v round trip: got %d coords, want %d", enc, len(out), len(v))
	}
	return out
}

func TestFP64RoundTripExact(t *testing.T) {
	for _, d := range []int{0, 1, 3, 4, 7, 257, 1000} {
		v := testVector(d, 1)
		out := roundTrip(t, EncFP64, 0, v)
		if !out.Equal(v) {
			t.Fatalf("fp64 round trip not exact at d=%d", d)
		}
	}
}

func TestFP16RoundTripWithinHalfPrecision(t *testing.T) {
	v := testVector(1000, 2)
	out := roundTrip(t, EncFP16, 0, v)
	for i := range v {
		// binary16 has 11 significand bits: relative error <= 2^-11.
		if err := math.Abs(out[i] - v[i]); err > math.Abs(v[i])/2048+1e-7 {
			t.Fatalf("fp16 coord %d: %v -> %v (err %v)", i, v[i], out[i], err)
		}
	}
}

func TestFP16SpecialValues(t *testing.T) {
	v := tensor.Vector{0, math.Copysign(0, -1), 1, -1, 65504, -65504, 1e20, -1e20, math.Inf(1), math.Inf(-1), 6e-8, 1e-30}
	out := roundTrip(t, EncFP16, 0, v)
	if out[0] != 0 || out[2] != 1 || out[3] != -1 {
		t.Fatalf("fp16 exact values mangled: %v", out[:4])
	}
	if out[4] != 65504 || out[5] != -65504 {
		t.Fatalf("fp16 max-normal mangled: %v %v", out[4], out[5])
	}
	// Out-of-range magnitudes saturate to ±Inf rather than wrapping.
	for i := 6; i <= 9; i++ {
		if !math.IsInf(out[i], int(math.Copysign(1, v[i]))) {
			t.Fatalf("fp16 overflow coord %d: %v -> %v, want Inf", i, v[i], out[i])
		}
	}
	if out[11] != 0 {
		t.Fatalf("fp16 underflow: %v -> %v, want 0", v[11], out[11])
	}
	nan := roundTrip(t, EncFP16, 0, tensor.Vector{math.NaN()})
	if !math.IsNaN(nan[0]) {
		t.Fatalf("fp16 NaN decoded as %v; a poison value must stay poisonous", nan[0])
	}
}

func TestInt8RoundTripWithinChunkStep(t *testing.T) {
	for _, d := range []int{1, 255, 256, 257, 1000} {
		v := testVector(d, 3)
		out := roundTrip(t, EncInt8, 0, v)
		for start := 0; start < d; start += int8Chunk {
			end := start + int8Chunk
			if end > d {
				end = d
			}
			lo, hi := v[start], v[start]
			for _, x := range v[start:end] {
				lo, hi = math.Min(lo, x), math.Max(hi, x)
			}
			// Half a quantization step plus float32 range rounding.
			tol := (hi-lo)/255/2 + 1e-6*(math.Abs(lo)+math.Abs(hi)) + 1e-12
			for i := start; i < end; i++ {
				if err := math.Abs(out[i] - v[i]); err > tol {
					t.Fatalf("int8 d=%d coord %d: %v -> %v (err %v > tol %v)", d, i, v[i], out[i], err, tol)
				}
			}
		}
	}
}

func TestInt8ConstantChunk(t *testing.T) {
	v := tensor.Vector{2.5, 2.5, 2.5}
	out := roundTrip(t, EncInt8, 0, v)
	for i, x := range out {
		if math.Abs(x-2.5) > 1e-6 {
			t.Fatalf("constant chunk coord %d decoded as %v", i, x)
		}
	}
}

// TestInt8NaNPoisonsChunk: a NaN anywhere in a chunk — first element or
// mid-chunk, where the min/max scan alone would skip it — must decode as
// NaN for the whole chunk, never be laundered into a finite in-range value
// a GAR distance filter would accept.
func TestInt8NaNPoisonsChunk(t *testing.T) {
	for _, pos := range []int{0, 1, 2, 299} {
		v := testVector(300, 8)
		v[pos] = math.NaN()
		out := roundTrip(t, EncInt8, 0, v)
		// The poisoned chunk decodes NaN everywhere; the other chunk stays
		// finite.
		chunkStart := (pos / int8Chunk) * int8Chunk
		chunkEnd := chunkStart + int8Chunk
		if chunkEnd > len(v) {
			chunkEnd = len(v)
		}
		for i := range out {
			inPoisoned := i >= chunkStart && i < chunkEnd
			if inPoisoned && !math.IsNaN(out[i]) {
				t.Fatalf("NaN at %d: coord %d decoded finite %v — poison laundered", pos, i, out[i])
			}
			if !inPoisoned && math.IsNaN(out[i]) {
				t.Fatalf("NaN at %d: coord %d in a clean chunk decoded NaN", pos, i)
			}
		}
	}
}

func TestInt8CompressionRatio(t *testing.T) {
	const d = 100_000
	v := testVector(d, 4)
	c, _ := NewCompressor(EncInt8, 0)
	payload := c.Compress(nil, v)
	if ratio := float64(FP64EncodedSize(d)) / float64(len(payload)); ratio < 4 {
		t.Fatalf("int8 ratio %.2fx < 4x (payload %d bytes)", ratio, len(payload))
	}
}

func TestTopKKeepsLargestAndZeroesRest(t *testing.T) {
	v := tensor.Vector{0.1, -5, 0.2, 4, -0.3, 3, 0}
	out := roundTrip(t, EncTopK, 3, v)
	want := tensor.Vector{0, -5, 0, 4, 0, 3, 0}
	if !out.Equal(want) {
		t.Fatalf("top-3 of %v = %v, want %v", v, out, want)
	}
}

func TestTopKTieBreaksByIndex(t *testing.T) {
	v := tensor.Vector{1, -1, 1, 1}
	out := roundTrip(t, EncTopK, 2, v)
	want := tensor.Vector{1, -1, 0, 0}
	if !out.Equal(want) {
		t.Fatalf("tied top-2 of %v = %v, want the lowest indices %v", v, out, want)
	}
}

func TestTopKClampsKToDimension(t *testing.T) {
	v := tensor.Vector{1, 2}
	out := roundTrip(t, EncTopK, 10, v)
	if !out.Equal(v) {
		t.Fatalf("k>d round trip %v != %v", out, v)
	}
}

// TestTopKErrorFeedback locks the error-feedback contract: coordinates the
// selection drops accumulate in the residual and ship once they dominate,
// so the cumulative transmitted signal tracks the cumulative input signal.
func TestTopKErrorFeedback(t *testing.T) {
	const d, k, rounds = 64, 8, 50
	c, err := NewCompressor(EncTopK, k)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(9)
	sumIn := tensor.New(d)
	sumOut := tensor.New(d)
	var decoded tensor.Vector
	for r := 0; r < rounds; r++ {
		g := rng.NormalVector(d, 0, 1)
		if err := sumIn.AddInPlace(g); err != nil {
			t.Fatal(err)
		}
		payload := c.Compress(nil, g)
		if err := Decode(&decoded, EncTopK, payload); err != nil {
			t.Fatal(err)
		}
		if err := sumOut.AddInPlace(decoded); err != nil {
			t.Fatal(err)
		}
	}
	// cumulative-in = cumulative-out + pending residual, exactly: every
	// dropped coordinate lives on in the residual, nothing is lost.
	diff := sumIn.Clone()
	if err := diff.AXPY(-1, sumOut); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	residual := c.residual.Clone()
	c.mu.Unlock()
	if err := diff.AXPY(-1, residual); err != nil {
		t.Fatal(err)
	}
	if diff.Norm() > 1e-9 {
		t.Fatalf("error feedback leaks signal: |sumIn - sumOut - residual| = %v", diff.Norm())
	}
	// And the residual stays bounded — it feeds back rather than growing.
	if residual.Norm() > sumIn.Norm() {
		t.Fatalf("residual norm %v exceeds cumulative signal norm %v", residual.Norm(), sumIn.Norm())
	}
}

// TestSelectTopKMatchesSortReference: the threshold selection keeps exactly
// the set a full (|v| desc, idx asc) sort would keep, across random inputs
// with heavy ties (and the value quickselect agrees with the sorted k-th
// magnitude).
func TestSelectTopKMatchesSortReference(t *testing.T) {
	rng := tensor.NewRNG(13)
	for trial := 0; trial < 80; trial++ {
		d := 1 + int(rng.NormalVector(1, 40, 20)[0])
		if d < 1 {
			d = 1
		}
		v := rng.NormalVector(d, 0, 1)
		for i := range v {
			// Quantize to force magnitude ties.
			v[i] = math.Round(v[i]*4) / 4
		}
		if trial%7 == 0 {
			v[trial%d] = math.NaN() // poison ranks below every magnitude
		}
		k := 1 + trial%d

		// Reference: full sort by (magnitude desc, index asc).
		ref := make([]int, d)
		for i := range ref {
			ref[i] = i
		}
		sort.Slice(ref, func(a, b int) bool {
			ma, mb := magOf(v[ref[a]]), magOf(v[ref[b]])
			if ma != mb {
				return ma > mb
			}
			return ref[a] < ref[b]
		})
		want := append([]int(nil), ref[:k]...)
		sort.Ints(want)

		// The radix+quickselect k-th largest must match the sorted k-th.
		mags := make([]float64, d)
		for i, x := range v {
			mags[i] = magOf(x)
		}
		var scratch topKScratch
		got, above := scratch.selectKthLargest(mags, k)
		if ref := magOf(v[ref[k-1]]); got != ref {
			t.Fatalf("trial %d (d=%d, k=%d): selectKthLargest=%v, sorted k-th=%v", trial, d, k, got, ref)
		}
		wantAbove := 0
		for _, x := range v {
			if magOf(x) > got {
				wantAbove++
			}
		}
		if above != wantAbove {
			t.Fatalf("trial %d (d=%d, k=%d): above=%d, want %d", trial, d, k, above, wantAbove)
		}

		// And the encoder's kept index set must match the reference set.
		c := Compressor{enc: EncTopK, k: k}
		payload := c.compressTopK(nil, v)
		gotK := make([]int, 0, k)
		for n := 0; n < k; n++ {
			gotK = append(gotK, int(binary.LittleEndian.Uint32(payload[8+12*n:])))
		}
		for i := range want {
			if gotK[i] != want[i] {
				t.Fatalf("trial %d (d=%d, k=%d): threshold selection kept %v, sort reference %v", trial, d, k, gotK, want)
			}
		}
	}
}

// TestCompressorSteadyStateZeroAlloc: after one warmup call has grown the
// residual, the selection scratch and the decode receiver to size, a
// compress+decode round trip performs zero heap allocations for every
// encoding — the property the codec benchmarks report and the pull loop's
// latency depends on.
func TestCompressorSteadyStateZeroAlloc(t *testing.T) {
	if testutil.RaceBuild() {
		t.Skip("race instrumentation disables the append-make extend-in-place optimization; alloc counts are a build-mode artifact")
	}
	const d = 4096
	v := testVector(d, 31)
	for _, tc := range []struct {
		enc Encoding
		k   int
	}{
		{EncFP64, 0}, {EncFP16, 0}, {EncInt8, 0}, {EncTopK, d / 100},
	} {
		c, err := NewCompressor(tc.enc, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 0, c.MaxEncodedSize(d))
		var out tensor.Vector
		roundTripOnce := func() {
			payload := c.Compress(buf[:0], v)
			if err := Decode(&out, tc.enc, payload); err != nil {
				t.Fatal(err)
			}
		}
		roundTripOnce() // warmup: scratch and receiver grow to size here
		if allocs := testing.AllocsPerRun(10, roundTripOnce); allocs != 0 {
			t.Errorf("%v: %v allocs per steady-state round trip, want 0", tc.enc, allocs)
		}
	}
}

func TestCompressorResetClearsResidual(t *testing.T) {
	c, err := NewCompressor(EncTopK, 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Compress(nil, tensor.Vector{3, 2, 1})
	if c.ResidualNorm() == 0 {
		t.Fatal("expected a pending residual after a lossy compression")
	}
	c.Reset()
	if c.ResidualNorm() != 0 {
		t.Fatal("Reset left a residual behind")
	}
	// Post-reset compression must behave exactly like a fresh compressor's.
	fresh, _ := NewCompressor(EncTopK, 1)
	a := c.Compress(nil, tensor.Vector{1, 5, 2})
	b := fresh.Compress(nil, tensor.Vector{1, 5, 2})
	if !bytes.Equal(a, b) {
		t.Fatal("post-reset compression differs from a fresh compressor")
	}
}

// TestDeterministicBytes: every codec is a deterministic pure function of
// its input (and residual state), so two identically-driven compressors emit
// identical bytes — the property deterministic-mode runs rely on.
func TestDeterministicBytes(t *testing.T) {
	v := testVector(777, 11)
	for _, enc := range []Encoding{EncFP64, EncFP16, EncInt8, EncTopK} {
		a, _ := NewCompressor(enc, 32)
		b, _ := NewCompressor(enc, 32)
		for round := 0; round < 3; round++ {
			pa := a.Compress(nil, v)
			pb := b.Compress(nil, v)
			if !bytes.Equal(pa, pb) {
				t.Fatalf("%v round %d: identical inputs produced different bytes", enc, round)
			}
		}
	}
}

func TestDecodeRejectsUnknownEncoding(t *testing.T) {
	var out tensor.Vector
	for _, enc := range []Encoding{encMax, 17, 255} {
		if err := Decode(&out, enc, []byte{0, 0, 0, 0}); err == nil {
			t.Fatalf("encoding byte %d accepted", enc)
		}
	}
	if _, err := NewCompressor(Encoding(99), 0); err == nil {
		t.Fatal("NewCompressor accepted an unknown encoding")
	}
	if _, err := NewCompressor(EncTopK, 0); err == nil {
		t.Fatal("NewCompressor accepted top-k without a k budget")
	}
}

func TestParseNames(t *testing.T) {
	cases := map[string]Encoding{
		"": EncFP64, "none": EncFP64, "fp64": EncFP64,
		"fp16": EncFP16, "int8": EncInt8, "topk": EncTopK, "TOP-K": EncTopK,
	}
	for name, want := range cases {
		got, err := Parse(name)
		if err != nil || got != want {
			t.Fatalf("Parse(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := Parse("gzip"); err == nil {
		t.Fatal("Parse accepted an unknown codec name")
	}
	for _, name := range Names() {
		enc, err := Parse(name)
		if err != nil || enc.String() != name {
			t.Fatalf("name %q does not round-trip: %v %v", name, enc, err)
		}
	}
}

func TestBufPoolRoundTrip(t *testing.T) {
	b := GetBuf(128)
	if len(b) != 0 || cap(b) < 128 {
		t.Fatalf("GetBuf(128): len=%d cap=%d", len(b), cap(b))
	}
	b = append(b, 1, 2, 3)
	PutBuf(b)
	PutBuf(nil) // must not panic
}

func TestDecodeReusesReceiver(t *testing.T) {
	v := testVector(500, 30)
	c, _ := NewCompressor(EncInt8, 0)
	payload := c.Compress(nil, v)
	out := make(tensor.Vector, 0, 1000)
	backing := &out[:1][0]
	if err := Decode(&out, EncInt8, payload); err != nil {
		t.Fatal(err)
	}
	if &out[0] != backing {
		t.Fatal("decode reallocated a receiver with sufficient capacity")
	}
}

// TestBufPoolCycleDoesNotAllocate: returning a payload buffer reuses a
// recycled *[]byte box, so a GetBuf/PutBuf cycle in steady state allocates
// nothing (it used to box the slice header on every PutBuf).
func TestBufPoolCycleDoesNotAllocate(t *testing.T) {
	if testutil.RaceBuild() {
		t.Skip("under the race detector sync.Pool drops a share of its Puts on purpose")
	}
	PutBuf(GetBuf(1 << 16))
	allocs := testing.AllocsPerRun(100, func() {
		b := GetBuf(1 << 16)
		b = append(b, 1, 2, 3)
		PutBuf(b)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per GetBuf/PutBuf cycle, want 0", allocs)
	}
}
