package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
)

// The disk tier stores one artifact per file in a self-describing envelope:
//
//	magic "SART" (4) | format version u32be (4) | header len u32be (4)
//	| header JSON | payload | sha256 (32) over every preceding byte
//
// The trailing checksum covers the whole file, so flipping any byte —
// header, payload, even the magic — is detectable by one comparison, and
// the header's own payload sha256 re-verifies the payload after the header
// has been trusted. The header carries the artifact's identity (kind + full
// key ID) and the builder-code fingerprint, so a file written by a stale
// binary, or renamed over the wrong key, never serves.

// fileMagic brands every artifact cache file.
const fileMagic = "SART"

// FileFormatVersion is the envelope layout version. Bump it when the layout
// itself changes; old files then read as stale (a deliberate rebuild), not
// corrupt.
const FileFormatVersion = 1

// envelope geometry.
const (
	filePrefixLen  = len(fileMagic) + 4 + 4 // magic + version + header len
	fileTrailerLen = sha256.Size
	// maxHeaderLen bounds the header a decoder will buffer, so a hostile
	// length field cannot drive a huge allocation.
	maxHeaderLen = 1 << 16
)

// ErrCorrupt classifies a cache file whose bytes fail verification:
// truncation, checksum mismatch, malformed header, or a payload that does
// not match its declared hash. The cure is deleting the file and rebuilding.
var ErrCorrupt = errors.New("artifact: corrupt cache file")

// ErrStale classifies a structurally valid cache file written by different
// code: an older/newer envelope format or a mismatched builder fingerprint.
// The cure is the same rebuild, counted separately so operators can tell
// bit rot from binary skew.
var ErrStale = errors.New("artifact: stale cache file")

// FileHeader is the envelope's JSON header.
type FileHeader struct {
	// Kind and ID identify the artifact (Key.Kind and Key.ID()).
	Kind string `json:"kind"`
	ID   string `json:"id"`
	// Fingerprint binds the file to the code that built it: the disk tier's
	// binary fingerprint combined with the per-kind codec version.
	Fingerprint string `json:"fingerprint"`
	// PayloadLen and PayloadSHA256 describe the encoded artifact bytes.
	PayloadLen    int64  `json:"payload_len"`
	PayloadSHA256 string `json:"payload_sha256"`
}

// EncodeFile wraps an encoded artifact payload in the envelope. The output
// is a pure function of its arguments — equal inputs yield identical bytes.
func EncodeFile(kind, id, fingerprint string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	h := FileHeader{
		Kind: kind, ID: id, Fingerprint: fingerprint,
		PayloadLen: int64(len(payload)), PayloadSHA256: hex.EncodeToString(sum[:]),
	}
	hb, err := json.Marshal(h)
	if err != nil {
		panic(fmt.Sprintf("artifact: marshal file header: %v", err)) // impossible: fixed struct of strings/ints
	}
	var buf bytes.Buffer
	buf.Grow(filePrefixLen + len(hb) + len(payload) + fileTrailerLen)
	buf.WriteString(fileMagic)
	var u32 [4]byte
	binary.BigEndian.PutUint32(u32[:], FileFormatVersion)
	buf.Write(u32[:])
	binary.BigEndian.PutUint32(u32[:], uint32(len(hb)))
	buf.Write(u32[:])
	buf.Write(hb)
	buf.Write(payload)
	trailer := sha256.Sum256(buf.Bytes())
	buf.Write(trailer[:])
	return buf.Bytes()
}

// DecodeFileAny verifies an envelope's integrity without expectations about
// whose artifact it is: checksum, magic, format version, header shape, and
// the payload hash. It never panics, whatever the input. Identity and
// fingerprint checks are the caller's job (DecodeFile) — this split exists
// so tooling and fuzzing can inspect arbitrary files.
func DecodeFileAny(data []byte) (FileHeader, []byte, error) {
	var h FileHeader
	if len(data) < filePrefixLen+fileTrailerLen {
		return h, nil, fmt.Errorf("%w: truncated (%d bytes)", ErrCorrupt, len(data))
	}
	body, trailer := data[:len(data)-fileTrailerLen], data[len(data)-fileTrailerLen:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], trailer) {
		return h, nil, fmt.Errorf("%w: file checksum mismatch", ErrCorrupt)
	}
	if string(data[:len(fileMagic)]) != fileMagic {
		return h, nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	version := binary.BigEndian.Uint32(data[len(fileMagic):])
	if version != FileFormatVersion {
		return h, nil, fmt.Errorf("%w: envelope format v%d (want v%d)", ErrStale, version, FileFormatVersion)
	}
	headerLen := binary.BigEndian.Uint32(data[len(fileMagic)+4:])
	if headerLen > maxHeaderLen || int(headerLen) > len(body)-filePrefixLen {
		return h, nil, fmt.Errorf("%w: header length %d out of range", ErrCorrupt, headerLen)
	}
	dec := json.NewDecoder(bytes.NewReader(body[filePrefixLen : filePrefixLen+int(headerLen)]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&h); err != nil {
		return FileHeader{}, nil, fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	payload := body[filePrefixLen+int(headerLen):]
	if int64(len(payload)) != h.PayloadLen {
		return FileHeader{}, nil, fmt.Errorf("%w: payload is %d bytes, header says %d", ErrCorrupt, len(payload), h.PayloadLen)
	}
	if sum := sha256.Sum256(payload); hex.EncodeToString(sum[:]) != h.PayloadSHA256 {
		return FileHeader{}, nil, fmt.Errorf("%w: payload checksum mismatch", ErrCorrupt)
	}
	return h, payload, nil
}

// DecodeFile verifies an envelope end to end — integrity via DecodeFileAny,
// then identity (the file must hold exactly the artifact named kind/id) and
// fingerprint (the file must have been written by this code) — and returns
// the payload. Identity mismatches are ErrCorrupt (wrong content under this
// name); fingerprint mismatches are ErrStale (right content, wrong binary).
func DecodeFile(data []byte, kind, id, fingerprint string) ([]byte, error) {
	h, payload, err := DecodeFileAny(data)
	if err != nil {
		return nil, err
	}
	if h.Kind != kind || h.ID != id {
		return nil, fmt.Errorf("%w: holds %s/%s, expected %s/%s", ErrCorrupt, h.Kind, h.ID, kind, id)
	}
	if h.Fingerprint != fingerprint {
		return nil, fmt.Errorf("%w: fingerprint %q (want %q)", ErrStale, h.Fingerprint, fingerprint)
	}
	return payload, nil
}

// Codec teaches the disk tier how to serialize one artifact kind. A Spec
// without a Codec is memory-only: its artifacts never touch disk.
type Codec[T any] struct {
	// Version names the payload encoding and the builder semantics behind
	// it. It folds into the file fingerprint, so bumping it (on any change
	// to the encode/decode logic or the meaning of the encoded bytes)
	// invalidates every cached file of this kind.
	Version string
	// Encode serializes a frozen artifact. It must be deterministic: equal
	// artifacts must encode to identical bytes.
	Encode func(T) ([]byte, error)
	// Decode reconstructs an artifact from Encode's output. The result must
	// be indistinguishable from a fresh Build with the same key — it is
	// frozen and handed out exactly like one. Decode must validate: arbitrary
	// bytes may error but never panic and never yield a half-valid value.
	Decode func([]byte) (T, error)
}
