package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync/atomic"

	"garfield/internal/compress"
	"garfield/internal/tensor"
)

// Kind enumerates request types, mirroring the paper's protocol buffers for
// gradients, models and aggregated gradients.
type Kind uint8

// Request kinds.
const (
	// KindGetGradient asks a worker for its gradient estimate at the
	// model state carried in the request, for a given step.
	KindGetGradient Kind = iota + 1
	// KindGetModel asks a server replica for its current model state.
	KindGetModel
	// KindGetAggrGrad asks a decentralized peer for its latest aggregated
	// gradient (the contract step of Listing 3).
	KindGetAggrGrad
	// KindPing checks liveness.
	KindPing
	// KindGetShardPart asks a server replica for the aggregated part of one
	// coordinate shard (or one hierarchical group winner) at a given step —
	// the reassembly pull of the sharded-aggregation protocol. The request's
	// Shard field names the part; Lo/Hi carry its coordinate range.
	KindGetShardPart
)

// String implements fmt.Stringer for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindGetGradient:
		return "get-gradient"
	case KindGetModel:
		return "get-model"
	case KindGetAggrGrad:
		return "get-aggr-grad"
	case KindPing:
		return "ping"
	case KindGetShardPart:
		return "get-shard-part"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Request is one pull: kind + step + optional caller identity + optional
// vector payload (the model state for KindGetGradient).
type Request struct {
	Kind Kind
	Step uint32
	// Accept is the payload-encoding negotiation byte: the one compressed
	// encoding (internal/compress) the caller is prepared to decode in the
	// reply, besides the always-acceptable fp64 passthrough. A serving node
	// compresses only when its configured codec matches Accept exactly;
	// every other pairing — an old caller that never sets the byte, a new
	// caller pulling an uncompressed node, or an encoding this build does
	// not know — falls back to passthrough, which is how mixed fleets
	// interoperate.
	Accept compress.Encoding
	// From is the caller's self-declared address ("" when anonymous). It
	// is advisory — a Byzantine caller can lie — and exists so adversarial
	// handlers (the equivocating Byzantine server) can answer different
	// pullers differently and deterministically. Honest handlers must not
	// trust it. At most 255 bytes survive encoding.
	From string
	// Shard names the coordinate shard (or hierarchical group) a sharded
	// pull addresses: a KindGetShardPart request asks for part number Shard,
	// and a ranged KindGetGradient carries the shard index its range belongs
	// to so per-shard wire accounting stays attributable. Zero otherwise.
	Shard uint16
	// Lo and Hi delimit the half-open coordinate range [Lo, Hi) of a sharded
	// pull. Hi > Lo marks the request as ranged: a ranged gradient pull asks
	// the worker for only that slice of its gradient (the request still
	// carries the full model in Vec — the worker needs every coordinate to
	// compute the gradient), and the reply's decoder is bounded by Hi-Lo
	// instead of the model dimension. Both zero on unsharded requests.
	Lo, Hi uint32
	// Vec is the optional request payload (nil when absent).
	Vec tensor.Vector
}

// Ranged reports whether the request addresses a proper coordinate range
// (Hi > Lo) rather than the full vector.
func (r Request) Ranged() bool { return r.Hi > r.Lo }

// Response carries the pulled vector, or OK=false when the node has nothing
// to serve (e.g. a Byzantine node dropping its reply, or a step mismatch).
// EchoKind and EchoStep correlate the response with its request: the serving
// loop stamps them from the request it answered, and clients reject replies
// whose echo does not match the call they issued. Without correlation, a
// network that duplicates a request frame desynchronizes the strict
// request/response stream one-for-all: every later call on the connection
// would silently receive its predecessor's reply — an authentic, checksummed,
// wrong-step vector. The echo turns that silent poisoning into a detected
// transport failure (ErrMismatchedReply; the connection is torn down and the
// call retried or surfaced).
// A response's vector travels under a negotiated payload encoding: Enc names
// it, and for anything other than the fp64 passthrough the handler supplies
// the pre-compressed bytes in Payload (produced by a compress.Compressor —
// for error-feedback codecs the residual update must happen where the
// gradient stream lives, not in the transport). The encoding byte sits
// inside the checksummed frame body like every other payload byte, so it is
// integrity-protected; decoders reject unknown encodings outright.
type Response struct {
	OK       bool
	EchoKind Kind
	EchoStep uint32
	// Enc is the encoding of the reply payload. EncFP64 (the zero value)
	// means Vec is serialized directly — the seed wire format.
	Enc compress.Encoding
	// Vec is the reply vector (passthrough encoding). Ignored by the
	// encoder when Enc != EncFP64.
	Vec tensor.Vector
	// Payload is the pre-compressed reply body when Enc != EncFP64. On the
	// decode side it is never populated: decodeResponseInto decompresses
	// straight into Vec, so the protocol layer only ever sees vectors.
	Payload []byte
	// FreePayload tells the serving loop that Payload was borrowed from
	// compress.GetBuf and may be recycled once the frame is written (a
	// handler serving a long-lived cached payload leaves it false).
	FreePayload bool
	// FreeVec tells the serving loop that Vec was borrowed from
	// tensor.GetVec and is the handler's to give away: the loop releases it
	// once the frame is written. A handler serving a vector it keeps (a
	// fixed stub reply) leaves it false.
	FreeVec bool
}

const (
	// maxFrame bounds a single message; large enough for the biggest
	// Table-1 model (VGG, ~128M params = ~1 GiB) plus headers.
	maxFrame = 1<<30 + 64
)

var (
	// ErrFrameTooLarge is returned for frames exceeding maxFrame.
	ErrFrameTooLarge = errors.New("rpc: frame too large")

	// ErrMalformed is returned for syntactically invalid messages.
	ErrMalformed = errors.New("rpc: malformed message")

	// ErrChecksum is returned when a frame's payload fails checksum
	// verification — bytes were corrupted in flight (an adversarial
	// network element, modelled by transport.LinkFault). The payload is
	// rejected before it reaches the decoder: a corrupted gradient or
	// model can never silently poison aggregation.
	ErrChecksum = errors.New("rpc: payload checksum mismatch")
)

// castagnoli is the CRC-32C table; Castagnoli is hardware-accelerated on
// amd64/arm64, so the integrity pass costs a small fraction of the codec.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksumRejects counts frames rejected for checksum mismatch, process
// wide. The chaos invariant harness reads it to prove injected corruption
// was detected rather than absorbed.
var checksumRejects atomic.Uint64

// ChecksumRejects returns the number of frames this process has rejected
// for payload checksum mismatch.
func ChecksumRejects() uint64 { return checksumRejects.Load() }

// The frame layout is a 4-byte little-endian length prefix followed by the
// frame body: a 4-byte CRC-32C of the payload, then the payload itself. The
// length counts the body (checksum word included), so the stream remains
// generically "length-prefixed frames" — which is the shape
// transport.LinkFault's frame-wise chaos programs reassemble. Readers verify
// the checksum before handing the payload to a decoder and reject mismatches
// with ErrChecksum; a network that flips body bytes (the chaos corrupt
// program, or a real mangling middlebox) therefore cannot silently feed
// garbage into model or gradient aggregation.
//
// Wire buffers belong to whoever owns the stream or the message, never to a
// shared pool: each end of a connection keeps a frameReader (the serving end
// encodes its response over the same buffer), a client the request frame of
// each pull in flight (see fanout). Each grows to its owner's largest message
// and is reused as is.
const frameHeaderSize = 8 // length prefix + checksum word

// resized returns buf at length n, reusing its capacity when it suffices
// (contents unspecified).
func resized(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// sealFrame writes the length prefix and checksum word of a frame whose
// payload is already in place behind them.
func sealFrame(frame []byte) {
	payload := frame[frameHeaderSize:]
	binary.LittleEndian.PutUint32(frame, uint32(4+len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
}

// requestFrame encodes req and its frame header over buf and returns the
// frame: one Write (one syscall / pipe handoff) puts the message on the wire,
// and the same bytes can be written to any number of peers.
func requestFrame(buf []byte, req Request) []byte {
	frame := resized(buf, frameHeaderSize+encodedRequestSize(req))
	encodeRequestTo(frame[frameHeaderSize:], req)
	sealFrame(frame)
	return frame
}

// responseFrame is requestFrame for responses.
func responseFrame(buf []byte, resp Response) []byte {
	frame := resized(buf, frameHeaderSize+encodedResponseSize(resp))
	encodeResponseTo(frame[frameHeaderSize:], resp)
	sealFrame(frame)
	return frame
}

// frameReader is the read side of one stream. Its header scratch and payload
// buffer live as long as the stream's owner keeps it, so reading a frame
// allocates only when the frame is larger than any before it.
type frameReader struct {
	hdr [frameHeaderSize]byte
	buf []byte
}

// next reads one checksummed frame from r and returns its payload — a view of
// the reader's buffer, valid until the following call. A checksum mismatch
// consumes the whole frame (the stream stays positioned at the next frame
// boundary) and returns ErrChecksum.
func (fr *frameReader) next(r io.Reader) ([]byte, error) {
	if _, err := io.ReadFull(r, fr.hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(fr.hdr[:4])
	if n > maxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if n < 4 {
		return nil, fmt.Errorf("%w: frame body of %d bytes", ErrMalformed, n)
	}
	fr.buf = resized(fr.buf, int(n-4))
	if _, err := io.ReadFull(r, fr.buf); err != nil {
		return nil, err
	}
	if sum := crc32.Checksum(fr.buf, castagnoli); sum != binary.LittleEndian.Uint32(fr.hdr[4:]) {
		checksumRejects.Add(1)
		return nil, fmt.Errorf("%w: %d-byte payload", ErrChecksum, n-4)
	}
	return fr.buf, nil
}

// fromLen bounds the encoded caller identity to one length byte, truncating
// longer strings (identities are short node addresses in practice).
func fromLen(r Request) int {
	if len(r.From) > 255 {
		return 255
	}
	return len(r.From)
}

// reqFixedSize is the fixed request prefix: kind(1) step(4) accept(1)
// shard(2) lo(4) hi(4), followed by fromLen(1) from(n) hasVec(1) [vec].
const reqFixedSize = 16

func encodedRequestSize(r Request) int {
	size := reqFixedSize + 2 + fromLen(r)
	if r.Vec != nil {
		size += r.Vec.EncodedSize()
	}
	return size
}

// encodeRequestTo serializes r into buf (len encodedRequestSize(r)):
// kind(1) step(4) accept(1) shard(2) lo(4) hi(4) fromLen(1) from(n)
// hasVec(1) [vec].
func encodeRequestTo(buf []byte, r Request) {
	buf[0] = byte(r.Kind)
	binary.LittleEndian.PutUint32(buf[1:], r.Step)
	buf[5] = byte(r.Accept)
	binary.LittleEndian.PutUint16(buf[6:], r.Shard)
	binary.LittleEndian.PutUint32(buf[8:], r.Lo)
	binary.LittleEndian.PutUint32(buf[12:], r.Hi)
	n := fromLen(r)
	buf[reqFixedSize] = byte(n)
	copy(buf[reqFixedSize+1:], r.From[:n])
	buf[reqFixedSize+1+n] = 0
	if r.Vec != nil {
		buf[reqFixedSize+1+n] = 1
		// Encoding into a correctly-sized buffer cannot fail.
		_ = r.Vec.EncodeTo(buf[reqFixedSize+2+n:])
	}
}

// decodeRequestInto parses the output of encodeRequestTo into req, reusing
// req.Vec's backing array when its capacity suffices. On requests without a
// payload req.Vec is nil; the previous buffer is handed back in spare so the
// caller can keep it for the next request.
func decodeRequestInto(req *Request, b []byte) (spare tensor.Vector, err error) {
	if len(b) < reqFixedSize+2 {
		return req.Vec, fmt.Errorf("%w: request of %d bytes", ErrMalformed, len(b))
	}
	req.Kind = Kind(b[0])
	req.Step = binary.LittleEndian.Uint32(b[1:])
	// An unknown Accept byte is not an error: the negotiation contract is
	// "compress only on exact codec match", so a value this build does not
	// know simply never matches and the reply falls back to passthrough.
	req.Accept = compress.Encoding(b[5])
	req.Shard = binary.LittleEndian.Uint16(b[6:])
	req.Lo = binary.LittleEndian.Uint32(b[8:])
	req.Hi = binary.LittleEndian.Uint32(b[12:])
	n := int(b[reqFixedSize])
	if len(b) < reqFixedSize+2+n {
		return req.Vec, fmt.Errorf("%w: request of %d bytes, from of %d", ErrMalformed, len(b), n)
	}
	// A connection's requests nearly always come from one caller: keep the
	// string when the bytes repeat (the comparison does not allocate).
	if from := b[reqFixedSize+1 : reqFixedSize+1+n]; req.From != string(from) {
		req.From = string(from)
	}
	if b[reqFixedSize+1+n] != 1 {
		spare = req.Vec
		req.Vec = nil
		return spare, nil
	}
	if err := req.Vec.UnmarshalBinary(b[reqFixedSize+2+n:]); err != nil {
		return req.Vec, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return nil, nil
}

// respHeaderSize is the fixed response prefix: ok(1) echoKind(1)
// echoStep(4) enc(1). The baseline byte accounting (WireStats) and every
// encode/decode below derive from this one constant.
const respHeaderSize = 7

func encodedResponseSize(r Response) int {
	size := respHeaderSize
	if !r.OK {
		return size
	}
	if r.Enc != compress.EncFP64 {
		return size + len(r.Payload)
	}
	if r.Vec != nil {
		size += r.Vec.EncodedSize()
	}
	return size
}

// encodeResponseTo serializes r into buf (len encodedResponseSize(r)):
// ok(1) echoKind(1) echoStep(4) enc(1) [payload]. The payload is the
// passthrough-encoded Vec under EncFP64, the handler-supplied compressed
// bytes otherwise.
func encodeResponseTo(buf []byte, r Response) {
	buf[0] = 0
	if r.OK {
		buf[0] = 1
	}
	buf[1] = byte(r.EchoKind)
	binary.LittleEndian.PutUint32(buf[2:], r.EchoStep)
	buf[6] = byte(r.Enc)
	if !r.OK {
		buf[6] = 0
		return
	}
	if r.Enc != compress.EncFP64 {
		copy(buf[7:], r.Payload)
		return
	}
	if r.Vec != nil {
		_ = r.Vec.EncodeTo(buf[7:])
	}
}

// ErrBadEncoding is returned for a reply whose payload-encoding byte names
// a codec this build does not know. It is rejected, never guessed at: the
// byte is integrity-protected by the frame checksum, so an unknown value
// means a newer or Byzantine peer, and decoding its payload as some other
// codec would be silent poisoning.
var ErrBadEncoding = errors.New("rpc: unknown payload encoding")

// decodeResponseInto parses the output of encodeResponseTo, decompressing a
// non-passthrough payload into Vec — the protocol layer above only ever
// sees plain vectors, whatever travelled on the wire. dimBound caps the
// dimension a compressed payload may claim (see replyDimBound): the sparse
// codec's payload does not grow with the dimension, so without the bound a
// Byzantine peer's twenty-byte reply could demand a multi-gigabyte output
// allocation.
//
// With a non-nil dst the reply vector decodes in place over dst's backing
// array (grown only when capacity falls short — both the compressed decoders
// and the fp64 unmarshal reuse capacity), and *dst is re-pointed at the
// result so the capacity survives for the next round even after growth. The
// steady state of a pull loop therefore decodes every reply with zero vector
// allocations, whatever codec is on the wire. A nil dst decodes into a fresh
// vector.
func decodeResponseInto(dst *tensor.Vector, b []byte, dimBound int) (Response, error) {
	if len(b) < respHeaderSize {
		return Response{}, fmt.Errorf("%w: response of %d bytes", ErrMalformed, len(b))
	}
	r := Response{
		OK:       b[0] == 1,
		EchoKind: Kind(b[1]),
		EchoStep: binary.LittleEndian.Uint32(b[2:]),
		Enc:      compress.Encoding(b[6]),
	}
	if !r.OK {
		return r, nil
	}
	if !r.Enc.Valid() {
		return Response{}, fmt.Errorf("%w: byte %d", ErrBadEncoding, b[6])
	}
	if dst != nil {
		r.Vec = *dst
	}
	if r.Enc != compress.EncFP64 {
		if err := compress.DecodeBounded(&r.Vec, r.Enc, b[respHeaderSize:], dimBound); err != nil {
			return Response{}, fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		if dst != nil {
			*dst = r.Vec
		}
		return r, nil
	}
	if len(b) > respHeaderSize {
		if err := r.Vec.UnmarshalBinary(b[respHeaderSize:]); err != nil {
			return Response{}, fmt.Errorf("%w: %v", ErrMalformed, err)
		}
	} else {
		r.Vec = nil
	}
	if dst != nil && r.Vec != nil {
		*dst = r.Vec
	}
	return r, nil
}

// replyDimBound returns the decoder's output-dimension cap for one call: a
// ranged pull asks for exactly the [Lo, Hi) slice, so its reply cannot
// plausibly exceed that width; a gradient pull folds the model into the
// request, so its reply cannot exceed that dimension; calls without either
// fall back to the global compress.MaxDim backstop.
func replyDimBound(req *Request) int {
	if req.Ranged() {
		return int(req.Hi - req.Lo)
	}
	if req.Vec != nil {
		return len(req.Vec)
	}
	return compress.MaxDim
}
