package compress_test

import (
	"math"
	"testing"

	"garfield/internal/compress"
	"garfield/internal/gar"
	"garfield/internal/tensor"
)

// TestGARSelectionSurvivesRoundTrip is the subsystem's robustness property:
// aggregating round-tripped (lossily compressed) gradients with the
// selection GARs must land within tolerance of aggregating the originals —
// quantization noise must not flip Krum/MDA/Bulyan onto a Byzantine input.
func TestGARSelectionSurvivesRoundTrip(t *testing.T) {
	const n, f, d = 15, 3, 4096
	rng := tensor.NewRNG(21)
	honest := rng.NormalVector(d, 0, 1)
	inputs := make([]tensor.Vector, n)
	for i := range inputs {
		if i < n-f {
			// Honest cluster: small per-worker noise around a shared mean.
			inputs[i] = honest.Clone()
			noise := rng.NormalVector(d, 0, 0.1)
			if err := inputs[i].AddInPlace(noise); err != nil {
				t.Fatal(err)
			}
		} else {
			// Byzantine tail: far-away vectors the GARs must reject.
			inputs[i] = rng.NormalVector(d, 50, 5)
		}
	}

	for _, enc := range []compress.Encoding{compress.EncFP16, compress.EncInt8, compress.EncTopK} {
		// Per-worker compressors, as deployed (top-k keeps 25% of coords).
		decoded := make([]tensor.Vector, n)
		for i, v := range inputs {
			c, err := compress.NewCompressor(enc, d/4)
			if err != nil {
				t.Fatal(err)
			}
			if err := compress.Decode(&decoded[i], enc, c.Compress(nil, v)); err != nil {
				t.Fatal(err)
			}
		}
		for _, rule := range []string{gar.NameKrum, gar.NameMDA, gar.NameBulyan} {
			r, err := gar.New(rule, n, f)
			if err != nil {
				t.Fatal(err)
			}
			orig, err := r.Aggregate(inputs)
			if err != nil {
				t.Fatal(err)
			}
			origDist, err := orig.Distance(honest)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := gar.New(rule, n, f)
			if err != nil {
				t.Fatal(err)
			}
			agg, err := r2.Aggregate(decoded)
			if err != nil {
				t.Fatal(err)
			}
			// The compressed aggregate must stay in the honest cluster —
			// the Byzantine tail sits ~50*sqrt(d) away, so landing anywhere
			// near it means quantization noise flipped the selection. The
			// dense codecs must additionally stay within a small factor of
			// the uncompressed aggregate; top-k (which deliberately zeroes
			// 3/4 of a dense vector, relying on error feedback across
			// rounds) only has to preserve the rejection.
			dist, err := agg.Distance(honest)
			if err != nil {
				t.Fatal(err)
			}
			byzDist := 50 * math.Sqrt(d) // distance scale of the Byzantine tail
			if dist > byzDist/20 {
				t.Fatalf("%s under %v left the honest cluster: dist %v (Byzantine scale %v)", rule, enc, dist, byzDist)
			}
			if enc != compress.EncTopK && dist > 3*origDist+1 {
				t.Fatalf("%s under %v drifted: dist %v vs uncompressed %v", rule, enc, dist, origDist)
			}
		}
	}
}
