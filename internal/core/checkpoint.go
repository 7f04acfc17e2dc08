package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"

	"garfield/internal/tensor"
)

// Checkpointing lets a server persist and restore its model state — the
// classical crash-recovery alternative the paper's related work discusses
// (checkpoint-based fault tolerance for the parameter server). The format is
// a small header (magic, version, step), the encoded parameter vector, and
// an FNV-64a checksum trailer over header+payload. The trailer is what makes
// partial writes detectable: the tensor decoder ignores trailing bytes, so a
// shorter checkpoint written over a longer file (a crashed re-checkpoint)
// still decodes structurally — only the checksum tells the difference.

const (
	checkpointMagic   = 0x47464c44 // "GFLD"
	checkpointVersion = 2          // v2 added the checksum trailer
)

// ErrBadCheckpoint is returned when restoring from corrupt or incompatible
// data.
var ErrBadCheckpoint = errors.New("core: invalid checkpoint")

// SaveCheckpoint writes the server's current step and model state to w.
func (s *Server) SaveCheckpoint(w io.Writer) error {
	s.mu.RLock()
	step := s.currentStep
	params := s.params.Clone()
	s.mu.RUnlock()

	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], checkpointMagic)
	binary.LittleEndian.PutUint32(hdr[4:], checkpointVersion)
	binary.LittleEndian.PutUint32(hdr[8:], step)
	data, err := params.MarshalBinary()
	if err != nil {
		return fmt.Errorf("core: save checkpoint: %w", err)
	}
	sum := fnv.New64a()
	_, _ = sum.Write(hdr[:])
	_, _ = sum.Write(data)
	var trailer [8]byte
	binary.LittleEndian.PutUint64(trailer[:], sum.Sum64())

	for _, chunk := range [][]byte{hdr[:], data, trailer[:]} {
		if _, err := w.Write(chunk); err != nil {
			return fmt.Errorf("core: save checkpoint: %w", err)
		}
	}
	return nil
}

// LoadCheckpoint restores model state and step counter from r. The
// checkpointed model must match the server's architecture dimension, and the
// checksum trailer must verify — a truncated payload that happens to still
// decode is rejected. On success every piece of derived state is reset along
// with the model (ResetDerived): it belongs to the pre-restore timeline
// (serving it after recovery would hand peers state from a future the
// restored server has rolled back), and the optimizer's momentum velocity is
// cleared with its learning-rate schedule re-anchored at the checkpointed
// step.
func (s *Server) LoadCheckpoint(r io.Reader) error {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("%w: header: %v", ErrBadCheckpoint, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != checkpointMagic {
		return fmt.Errorf("%w: bad magic", ErrBadCheckpoint)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != checkpointVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrBadCheckpoint, v)
	}
	step := binary.LittleEndian.Uint32(hdr[8:])

	rest, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("%w: payload: %v", ErrBadCheckpoint, err)
	}
	if len(rest) < 8 {
		return fmt.Errorf("%w: missing checksum trailer", ErrBadCheckpoint)
	}
	data, trailer := rest[:len(rest)-8], rest[len(rest)-8:]
	sum := fnv.New64a()
	_, _ = sum.Write(hdr[:])
	_, _ = sum.Write(data)
	if got := binary.LittleEndian.Uint64(trailer); got != sum.Sum64() {
		return fmt.Errorf("%w: checksum mismatch (truncated or corrupted payload)", ErrBadCheckpoint)
	}
	var params tensor.Vector
	if err := params.UnmarshalBinary(data); err != nil {
		return fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if len(params) != s.arch.Dim() {
		return fmt.Errorf("%w: model dim %d, checkpoint dim %d",
			ErrBadCheckpoint, s.arch.Dim(), len(params))
	}
	s.mu.Lock()
	s.params = params
	s.setStepLocked(step)
	s.opt.ResetTo(int(step))
	s.mu.Unlock()
	s.ResetDerived()
	return nil
}
