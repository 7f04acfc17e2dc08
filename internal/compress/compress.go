// Package compress is the gradient-compression subsystem: pluggable codecs
// that shrink the bytes a pull reply moves over the wire. Garfield's
// Byzantine-resilience overhead is dominated by communication — every round
// ships full-precision gradient vectors from n_w workers to n_ps server
// replicas, and the MSMW topology multiplies that by the replication factor —
// so at production model sizes the network, not the aggregation kernel, is
// the bottleneck.
//
// Three codecs are provided behind one Encoding byte:
//
//   - EncFP64: lossless passthrough — the seed wire format (8 bytes per
//     coordinate), and the fallback every mixed fleet can speak;
//   - EncFP16 / EncInt8: linear quantization — fp16 halves-per-coordinate
//     (4x), int8 per-chunk scale+offset quantization (~7.8x) with
//     deterministic round-to-nearest;
//   - EncTopK: top-k sparsification — only the k largest-magnitude
//     coordinates ship, and a per-worker error-feedback residual accumulator
//     (Compressor) folds what was dropped back into the next gradient, the
//     standard trick that preserves convergence under aggressive sparsity.
//
// Negotiation lives in the RPC layer: a pull request advertises the one
// encoding its issuer can decode (Request.Accept), the serving node answers
// with its configured codec only when the two agree, and everything else
// falls back to fp64 passthrough — so mixed fleets interoperate and unknown
// encoding bytes are rejected at decode time. Compressed payloads ride
// inside the v2 checksummed frames, so a corrupted payload is caught by the
// CRC before it ever reaches a decoder here.
//
// Every encoder is a deterministic pure function of its input (plus, for
// top-k, the residual state), so deterministic-mode runs stay bit-identical
// per seed with compression enabled.
package compress

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"garfield/internal/tensor"
)

// Encoding identifies a payload encoding on the wire. The zero value is the
// lossless fp64 passthrough, so a zero Request/Response is always valid and
// old-style nodes that never set the byte interoperate unchanged.
type Encoding uint8

// The wire encodings. Values are wire format: never renumber.
const (
	// EncFP64 is the lossless passthrough (the seed format).
	EncFP64 Encoding = 0
	// EncFP16 is IEEE-754 half-precision quantization (2 bytes/coord).
	EncFP16 Encoding = 1
	// EncInt8 is per-chunk linear int8 quantization (~1 byte/coord).
	EncInt8 Encoding = 2
	// EncTopK is top-k magnitude sparsification (12 bytes/kept coord).
	EncTopK Encoding = 3

	// encMax bounds the known encodings; anything >= is rejected.
	encMax = 4
)

// String implements fmt.Stringer with the names Parse accepts.
func (e Encoding) String() string {
	switch e {
	case EncFP64:
		return "fp64"
	case EncFP16:
		return "fp16"
	case EncInt8:
		return "int8"
	case EncTopK:
		return "topk"
	default:
		return fmt.Sprintf("encoding(%d)", uint8(e))
	}
}

// Valid reports whether e is a known wire encoding.
func (e Encoding) Valid() bool { return e < encMax }

// Names returns the encoding names Parse accepts, in wire-value order.
func Names() []string { return []string{"fp64", "fp16", "int8", "topk"} }

// Parse maps a codec name to its Encoding. "" and "none" mean the fp64
// passthrough (no compression).
func Parse(name string) (Encoding, error) {
	switch strings.ToLower(name) {
	case "", "none", "fp64":
		return EncFP64, nil
	case "fp16":
		return EncFP16, nil
	case "int8":
		return EncInt8, nil
	case "topk", "top-k":
		return EncTopK, nil
	}
	return 0, fmt.Errorf("%w: %q (want one of %v)", ErrUnknownEncoding, name, Names())
}

// MaxDim bounds the coordinate count a decoded vector may claim — sized for
// the biggest Table-1 model (VGG, ~128M parameters) with headroom, and far
// below what a mangled sparse header could otherwise demand (see decodeTopK).
const MaxDim = 1 << 28

var (
	// ErrUnknownEncoding is returned for an encoding byte (or name) this
	// build does not know. Decoders reject it rather than guess: an unknown
	// byte means a newer or Byzantine peer, and misreading its payload as
	// some other codec would be silent poisoning.
	ErrUnknownEncoding = errors.New("compress: unknown encoding")

	// ErrCorrupt is returned when a payload fails the codec's structural
	// validation (truncated, oversized, or internally inconsistent).
	ErrCorrupt = errors.New("compress: corrupt payload")
)

// Decode decodes a compressed payload produced by Compressor.Compress (or
// Append*) into out, reusing out's backing array when its capacity suffices.
// Decoding is stateless — error feedback is a compress-side concern — so one
// Decode serves every connection of a client. Every codec validates the
// payload's structure strictly (exact length for the dense codecs, ordered
// in-range indices for top-k): truncations and length mismatches return
// ErrCorrupt, unknown encodings ErrUnknownEncoding.
func Decode(out *tensor.Vector, enc Encoding, data []byte) error {
	return DecodeBounded(out, enc, data, MaxDim)
}

// DecodeBounded is Decode with a caller-supplied upper bound on the output
// dimension. Callers that know the plausible reply dimension — a gradient
// puller knows its own model's — must pass it: the sparse layout is the one
// codec whose payload does not grow with the dimension it claims, so
// without the bound a Byzantine peer's ~20-byte header could demand a
// multi-gigabyte output allocation. The bound is clamped to MaxDim.
func DecodeBounded(out *tensor.Vector, enc Encoding, data []byte, maxDim int) error {
	if maxDim > MaxDim {
		maxDim = MaxDim
	}
	switch enc {
	case EncFP64:
		return decodeFP64(out, data, maxDim)
	case EncFP16:
		return decodeFP16(out, data, maxDim)
	case EncInt8:
		return decodeInt8(out, data, maxDim)
	case EncTopK:
		return decodeTopK(out, data, maxDim)
	}
	return fmt.Errorf("%w: byte %d", ErrUnknownEncoding, uint8(enc))
}

// MaxEncodedSize returns an upper bound on the encoded size of a
// d-dimensional vector under enc (k bounds top-k; ignored otherwise). It is
// the capacity contract Compress relies on for single-allocation appends.
func MaxEncodedSize(enc Encoding, d, k int) int {
	switch enc {
	case EncFP16:
		return fp16Size(d)
	case EncInt8:
		return int8Size(d)
	case EncTopK:
		if k > d {
			k = d
		}
		return topKSize(k)
	default:
		return 4 + 8*d
	}
}

// FP64EncodedSize returns the bytes a d-dimensional vector costs under the
// passthrough encoding — the baseline compression ratios are quoted against.
func FP64EncodedSize(d int) int { return 4 + 8*d }

// bufPool recycles compressed-payload buffers between the serve-side
// compressors and the RPC serving loop, so the steady-state pull loop
// allocates no per-reply payload slices (the Section 4.4 memory-management
// discipline, extended to the compression subsystem). It holds boxed buffers
// ready to borrow; bufBoxes holds the emptied *[]byte boxes, so returning a
// buffer reuses a header instead of allocating one.
var (
	bufPool = sync.Pool{
		New: func() any {
			b := make([]byte, 0, 4096)
			return &b
		},
	}
	bufBoxes = sync.Pool{New: func() any { return new([]byte) }}
)

// GetBuf borrows a payload buffer of length 0 and capacity >= n from the
// pool. Release it with PutBuf once the payload has been serialized.
func GetBuf(n int) []byte {
	p := bufPool.Get().(*[]byte)
	b := *p
	*p = nil
	bufBoxes.Put(p)
	if cap(b) < n {
		b = make([]byte, 0, n)
	}
	return b[:0]
}

// PutBuf returns a buffer obtained from GetBuf to the pool.
func PutBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	p := bufBoxes.Get().(*[]byte)
	*p = b[:0]
	bufPool.Put(p)
}

// Compressor is the serve-side state of one node: its configured codec plus,
// for top-k, the error-feedback residual accumulator. It is safe for
// concurrent use (a worker serves many server replicas at once); the
// residual update is serialized under the internal mutex so each compressed
// reply sees — and deposits — a consistent residual.
type Compressor struct {
	enc Encoding
	k   int

	mu       sync.Mutex
	residual tensor.Vector
	scratch  topKScratch
}

// NewCompressor returns a compressor for the given encoding. k is the top-k
// budget (coordinates kept per gradient) and is required — positive — for
// EncTopK, ignored otherwise.
func NewCompressor(enc Encoding, k int) (*Compressor, error) {
	if !enc.Valid() {
		return nil, fmt.Errorf("%w: byte %d", ErrUnknownEncoding, uint8(enc))
	}
	if enc == EncTopK && k < 1 {
		return nil, fmt.Errorf("compress: top-k needs k >= 1, got %d", k)
	}
	return &Compressor{enc: enc, k: k}, nil
}

// Encoding returns the codec this compressor produces.
func (c *Compressor) Encoding() Encoding { return c.enc }

// MaxEncodedSize bounds the bytes Compress will append for a d-dimensional
// input — the capacity to pre-size an append target with.
func (c *Compressor) MaxEncodedSize(d int) int { return MaxEncodedSize(c.enc, d, c.k) }

// Compress appends the encoding of v to dst and returns the extended slice.
// For EncTopK the call is stateful: the pending error-feedback residual is
// added to v before selection, and the un-transmitted remainder becomes the
// new residual. The other codecs are pure functions of v.
func (c *Compressor) Compress(dst []byte, v tensor.Vector) []byte {
	switch c.enc {
	case EncFP16:
		return appendFP16(dst, v)
	case EncInt8:
		return appendInt8(dst, v)
	case EncTopK:
		return c.compressTopK(dst, v)
	default:
		return appendFP64(dst, v)
	}
}

// Reset clears the error-feedback residual. Checkpoint restores call it: the
// accumulated residual belongs to the rolled-back timeline, and folding it
// into post-restore gradients would replay corrections for updates the model
// no longer contains.
func (c *Compressor) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.residual = nil
}

// ResidualNorm returns the L2 norm of the pending error-feedback residual
// (0 for the stateless codecs) — an observability hook for tests and the
// experiments harness.
func (c *Compressor) ResidualNorm() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.residual == nil {
		return 0
	}
	return c.residual.Norm()
}
