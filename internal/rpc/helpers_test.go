package rpc

import (
	"io"
	"testing"
)

// One-shot forms of the wire primitives for tests that speak the protocol by
// hand: fresh slices, no buffer ownership to think about.

func encodeRequest(r Request) []byte { return requestFrame(nil, r)[frameHeaderSize:] }

func encodeResponse(r Response) []byte { return responseFrame(nil, r)[frameHeaderSize:] }

func decodeRequest(b []byte) (Request, error) {
	var req Request
	if _, err := decodeRequestInto(&req, b); err != nil {
		return Request{}, err
	}
	return req, nil
}

func decodeResponse(b []byte, dimBound int) (Response, error) {
	return decodeResponseInto(nil, b, dimBound)
}

func writeFrame(w io.Writer, payload []byte) error {
	frame := resized(nil, frameHeaderSize+len(payload))
	copy(frame[frameHeaderSize:], payload)
	sealFrame(frame)
	_, err := w.Write(frame)
	return err
}

func writeRequestFrame(w io.Writer, req Request) error {
	_, err := w.Write(requestFrame(nil, req))
	return err
}

func writeResponseFrame(w io.Writer, resp Response) error {
	_, err := w.Write(responseFrame(nil, resp))
	return err
}

func readFrame(r io.Reader) ([]byte, error) { return new(frameReader).next(r) }

// pooled returns a PooledClient that is closed with the test.
func pooled(t testing.TB, c *PooledClient) *PooledClient {
	t.Cleanup(func() { _ = c.Close() })
	return c
}
