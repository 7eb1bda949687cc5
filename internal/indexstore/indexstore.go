// Package indexstore serializes built D-SOFT seed indexes to a
// versioned, CRC-framed on-disk format so a serving process can load a
// target's index near-instantly instead of rebuilding it from FASTA.
// This is the software analogue of the Darwin-WGA co-processor keeping
// the seed position table resident: the dominant startup cost is paid
// once, offline, by `darwin-wga index build`.
//
// File layout (all integers little-endian):
//
//	offset 0: magic "DWGAIDX\x01" (8 bytes; the trailing byte doubles
//	          as the container version and changes only if the framing
//	          itself changes)
//	then four sections, in this order, each a checkpoint WAL frame
//	(checkpoint.AppendFrame / checkpoint.ReadFrame):
//
//	  u32 payload length | u8 kind | u32 CRC32-C over (kind ++ payload) | payload
//
//	  kind 1: header JSON (Header below) — format version, seed shape,
//	          frequency mask, target length and content fingerprint,
//	          table geometry
//	  kind 4: key presence bitmap, raw u64s (one bit per seed key,
//	          padded to whole 64-byte lines; the rank samples are
//	          derived on load)
//	  kind 2: bucket-start table, raw u32s (one entry per present key,
//	          plus one)
//	  kind 3: position table, raw u32s
//
// Readers validate magic, format version, per-section CRCs, section
// geometry against the header, and (when the caller knows what target
// it expects) the target fingerprint and seed parameters — each failure
// mode has a typed error so callers can distinguish "corrupt file"
// (rebuild it) from "wrong target/config" (operator error).
package indexstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"darwinwga/internal/checkpoint"
	"darwinwga/internal/seed"
)

// FormatVersion is the serialization format version. Bump it on any
// incompatible change to Header or section encoding; loaders reject
// other versions with ErrVersion.
const FormatVersion = 2

// magic identifies an index file. The final byte is the container
// version: it guards the framing, while FormatVersion (inside the
// framed header) guards the payload semantics.
var magic = []byte("DWGAIDX\x01")

// Section kinds.
const (
	kindHeader    = 1
	kindStarts    = 2
	kindPositions = 3
	kindPresent   = 4
)

// Typed load failures. Callers match with errors.Is.
var (
	// ErrBadMagic: the file is not an index file at all.
	ErrBadMagic = errors.New("indexstore: bad magic (not an index file)")
	// ErrVersion: the file is an index file from an incompatible format
	// version.
	ErrVersion = errors.New("indexstore: unsupported format version")
	// ErrCorrupt: truncation, CRC mismatch, or framing damage.
	ErrCorrupt = errors.New("indexstore: corrupt index file")
	// ErrFingerprintMismatch: the file indexes different target content
	// than the caller holds.
	ErrFingerprintMismatch = errors.New("indexstore: target fingerprint mismatch")
	// ErrConfigMismatch: the file was built under different seed
	// parameters (pattern or max-freq) than the caller's config.
	ErrConfigMismatch = errors.New("indexstore: seed config mismatch")
)

// Header is the framed JSON header of an index file.
type Header struct {
	FormatVersion int    `json:"format_version"`
	SeedPattern   string `json:"seed_pattern"`
	MaxFreq       int    `json:"max_freq"`
	TargetLen     int    `json:"target_len"`
	// TargetFingerprint is the FNV-64a hex fingerprint of the
	// concatenated target bases — the same fingerprint the server
	// registry and cluster layer key on.
	TargetFingerprint string `json:"target_fingerprint"`
	// Buckets is the number of present (non-empty) seed keys.
	Buckets   int `json:"buckets"`
	Positions int `json:"positions"`
}

// FingerprintBases returns the canonical content fingerprint for target
// bases: FNV-64a over the concatenated sequence, as 16 hex digits. The
// server registry, checkpoint layer, and cluster membership all key on
// this value.
func FingerprintBases(bases []byte) string {
	h := fnv.New64a()
	h.Write(bases) //nolint:errcheck // fnv never errors
	return fmt.Sprintf("%016x", h.Sum64())
}

// Encode serializes ix (built over target content with fingerprint
// targetFP) to the on-disk format.
func Encode(ix *seed.Index, targetFP string) ([]byte, error) {
	if ix == nil {
		return nil, fmt.Errorf("indexstore: nil index")
	}
	present, starts, positions := ix.RawParts()
	return encodeParts(Header{
		FormatVersion:     FormatVersion,
		SeedPattern:       ix.Shape().Pattern,
		MaxFreq:           ix.MaxFreq(),
		TargetLen:         ix.TargetLen(),
		TargetFingerprint: targetFP,
		Buckets:           len(starts) - 1,
		Positions:         len(positions),
	}, present, starts, positions)
}

// encodeParts frames hdr and the three tables.
func encodeParts(hdr Header, present []uint64, starts, positions []uint32) ([]byte, error) {
	hdrJSON, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}
	size := len(magic) + checkpoint.FrameSize(len(hdrJSON)) + checkpoint.FrameSize(8*len(present)) +
		checkpoint.FrameSize(4*len(starts)) + checkpoint.FrameSize(4*len(positions))
	out := make([]byte, 0, size)
	out = append(out, magic...)
	out = checkpoint.AppendFrame(out, kindHeader, hdrJSON)
	out = checkpoint.AppendFrame(out, kindPresent, u64Bytes(present))
	out = checkpoint.AppendFrame(out, kindStarts, u32Bytes(starts))
	out = checkpoint.AppendFrame(out, kindPositions, u32Bytes(positions))
	return out, nil
}

// Write atomically serializes ix to path (checkpoint.WriteFileAtomic),
// so a crash mid-write never leaves a torn file under the final name.
func Write(path string, ix *seed.Index, targetFP string) error {
	data, err := Encode(ix, targetFP)
	if err != nil {
		return err
	}
	return checkpoint.WriteBytesAtomic(path, nil, data)
}

// Decode parses a serialized index from memory, validating magic,
// framing, CRCs, version, and geometry. It is the core of Load and the
// fuzz entry point.
func Decode(data []byte) (*seed.Index, *Header, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != string(magic) {
		return nil, nil, ErrBadMagic
	}
	hdr, rest, err := readHeaderFrame(data[len(magic):])
	if err != nil {
		return nil, nil, err
	}
	if hdr.FormatVersion != FormatVersion {
		return nil, hdr, fmt.Errorf("%w: file has version %d, this build reads %d",
			ErrVersion, hdr.FormatVersion, FormatVersion)
	}
	shape, err := seed.ParseShape(hdr.SeedPattern)
	if err != nil {
		return nil, hdr, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}

	kind, payload, rest, err := readFrame(rest)
	if err != nil {
		return nil, hdr, err
	}
	if kind != kindPresent {
		return nil, hdr, fmt.Errorf("%w: second section has kind %d, want presence bitmap", ErrCorrupt, kind)
	}
	if len(payload)%8 != 0 {
		return nil, hdr, fmt.Errorf("%w: presence bitmap is %d bytes, not whole words", ErrCorrupt, len(payload))
	}
	present := bytesU64(payload)

	kind, payload, rest, err = readFrame(rest)
	if err != nil {
		return nil, hdr, err
	}
	if kind != kindStarts {
		return nil, hdr, fmt.Errorf("%w: third section has kind %d, want starts", ErrCorrupt, kind)
	}
	if len(payload) != 4*(hdr.Buckets+1) {
		return nil, hdr, fmt.Errorf("%w: starts section is %d bytes, header says %d buckets",
			ErrCorrupt, len(payload), hdr.Buckets)
	}
	starts := bytesU32(payload)

	kind, payload, rest, err = readFrame(rest)
	if err != nil {
		return nil, hdr, err
	}
	if kind != kindPositions {
		return nil, hdr, fmt.Errorf("%w: fourth section has kind %d, want positions", ErrCorrupt, kind)
	}
	if len(payload) != 4*hdr.Positions {
		return nil, hdr, fmt.Errorf("%w: positions section is %d bytes, header says %d positions",
			ErrCorrupt, len(payload), hdr.Positions)
	}
	positions := bytesU32(payload)
	if len(rest) != 0 {
		return nil, hdr, fmt.Errorf("%w: %d trailing bytes after last section", ErrCorrupt, len(rest))
	}

	ix, err := seed.IndexFromParts(shape, hdr.TargetLen, present, starts, positions,
		seed.IndexOptions{MaxFreq: hdr.MaxFreq})
	if err != nil {
		return nil, hdr, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return ix, hdr, nil
}

// Load reads and validates an index file.
func Load(path string) (*seed.Index, *Header, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return Decode(data)
}

// maxHeaderBytes caps the header length ReadHeader accepts: a real
// header is a few hundred bytes of JSON, and a larger claim is damage.
const maxHeaderBytes = 64 << 10

// ReadHeader reads only the magic and the framed header of an index file
// — enough for inspect/verify tooling and for the registry to decide
// whether the file matches before paying for the table load. A header
// frame claiming more than maxHeaderBytes fails with ErrCorrupt before
// anything is allocated for it.
func ReadHeader(path string) (*Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //nolint:errcheck // read-only
	buf := make([]byte, len(magic)+checkpoint.FrameSize(0))
	if _, err := io.ReadFull(f, buf[:len(magic)]); err != nil || string(buf[:len(magic)]) != string(magic) {
		return nil, ErrBadMagic
	}
	if _, err := io.ReadFull(f, buf[len(magic):]); err != nil {
		return nil, fmt.Errorf("%w: truncated frame header", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint32(buf[len(magic):])
	if n > maxHeaderBytes {
		return nil, fmt.Errorf("%w: header frame claims %d bytes, limit %d", ErrCorrupt, n, maxHeaderBytes)
	}
	frame := append(buf[len(magic):], make([]byte, n)...)
	if _, err := io.ReadFull(f, frame[checkpoint.FrameSize(0):]); err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	hdr, _, err := readHeaderFrame(frame)
	return hdr, err
}

// readHeaderFrame parses the header frame off the front of data.
func readHeaderFrame(data []byte) (*Header, []byte, error) {
	kind, payload, rest, err := readFrame(data)
	if err != nil {
		return nil, nil, err
	}
	if kind != kindHeader {
		return nil, nil, fmt.Errorf("%w: first section has kind %d, want header", ErrCorrupt, kind)
	}
	var hdr Header
	if err := json.Unmarshal(payload, &hdr); err != nil {
		return nil, nil, fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	return &hdr, rest, nil
}

// LoadForTarget loads an index file and additionally requires it to
// match the target content fingerprint and seed parameters the caller
// is serving. A stale file (the FASTA changed) fails with
// ErrFingerprintMismatch; a file built under other seed parameters
// fails with ErrConfigMismatch.
func LoadForTarget(path, wantFP, seedPattern string, maxFreq int) (*seed.Index, *Header, error) {
	ix, hdr, err := Load(path)
	if err != nil {
		return nil, hdr, err
	}
	if hdr.TargetFingerprint != wantFP {
		return nil, hdr, fmt.Errorf("%w: file indexes %s, target is %s",
			ErrFingerprintMismatch, hdr.TargetFingerprint, wantFP)
	}
	if hdr.SeedPattern != seedPattern || hdr.MaxFreq != maxFreq {
		return nil, hdr, fmt.Errorf("%w: file built with seed %q maxfreq %d, config wants %q %d",
			ErrConfigMismatch, hdr.SeedPattern, hdr.MaxFreq, seedPattern, maxFreq)
	}
	return ix, hdr, nil
}

// readFrame parses one section frame off the front of data; any damage
// is ErrCorrupt.
func readFrame(data []byte) (kind byte, payload, rest []byte, err error) {
	kind, payload, rest, err = checkpoint.ReadFrame(data)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return kind, payload, rest, nil
}

// u32Bytes renders a u32 slice as little-endian bytes.
func u32Bytes(v []uint32) []byte {
	out := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[4*i:], x)
	}
	return out
}

// u64Bytes renders a u64 slice as little-endian bytes.
func u64Bytes(v []uint64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], x)
	}
	return out
}

// bytesU64 parses little-endian bytes back into u64s. len(b) must be a
// multiple of 8.
func bytesU64(b []byte) []uint64 {
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out
}

// bytesU32 parses little-endian bytes back into u32s. len(b) must be a
// multiple of 4 (callers validate section geometry first).
func bytesU32(b []byte) []uint32 {
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}
