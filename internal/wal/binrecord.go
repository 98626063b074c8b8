package wal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"qracn/internal/quorum"
	"qracn/internal/store"
	"qracn/internal/wire"
)

// Record payload layout (v1; binVersion2 below adds the 2PC fields, and
// snapshot bodies share the marker and version bytes, see appendSnapshotBody):
//
//	0x00 marker | 0x01 version | str TxID | varint Block |
//	str Key | uvarint Version | value (wire value encoding)
//
// The leading marker byte is what tells this format apart from the retired
// gob format: a gob stream begins with its first message's byte count, an
// unsigned varint that is never zero. A CRC-valid, non-empty payload whose
// first byte is not the marker is therefore a gob-era record, and reading
// one is a *LegacyFormatError — never a torn tail to truncate or a snapshot
// to skip, because its bytes are acknowledged commits.
const (
	binMarker  byte = 0x00
	binVersion byte = 0x01
	// binVersion2 extends the record payload with a record-type byte and the
	// 2PC fields (write set, release set, quorum membership, commit flag):
	//
	//	0x00 marker | 0x02 version | u8 type | str TxID | varint Block |
	//	str Key | uvarint Version | value | u8 Commit |
	//	writes (uvarint count, each: str ID | value | uvarint NewVersion |
	//	varint Block) | release (uvarint count of str) |
	//	quorum (uvarint count of varint)
	//
	// Plain object writes keep the v1 layout so pre-existing segments and
	// the zero-alloc hot append path are untouched; only prepare/decision
	// records (and a hypothetical write carrying 2PC fields) take v2.
	binVersion2 byte = 0x02
)

// BadRecordError reports a frame whose CRC is VALID but whose payload is not
// a well-formed binary record — a version byte out of range, or a
// structurally broken body. Unlike a torn tail this is not a crash artifact:
// the bytes were written durably and are wrong, so inspection tools must
// fail loudly on it (recovery still truncates a final segment at it, like a
// torn tail, to preserve availability from the intact prefix).
type BadRecordError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *BadRecordError) Error() string {
	return fmt.Sprintf("wal: bad record in %s at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// LegacyFormatError reports a CRC-valid record or snapshot payload written
// in the retired gob format. Open fails on it and leaves every byte in
// place; the message names the file and the upgrade step.
type LegacyFormatError struct {
	Path   string
	Offset int64
}

func (e *LegacyFormatError) Error() string {
	return fmt.Sprintf("wal: %s holds a gob-era payload at offset %d, a format this build no longer reads; "+
		"to upgrade, start the node once on a release that still reads gob, with the default binary "+
		"format (no -codec gob), and stop it cleanly with SIGTERM: its final checkpoint rewrites the "+
		"state as a binary snapshot and compacts the gob segments", e.Path, e.Offset)
}

// errLegacyPayload is decodeRecordPayload's and decodeSnapshotBody's signal
// for a gob-era payload; callers attach the position as a LegacyFormatError.
var errLegacyPayload = errors.New("gob-era payload")

// AppendRecord appends rec's binary payload (no frame header) to dst. It
// allocates only if dst lacks capacity. Plain writes emit the v1 layout;
// records carrying 2PC state emit v2.
func AppendRecord(dst []byte, rec *Record) ([]byte, error) {
	v2 := rec.Type != RecordWrite || rec.Commit ||
		len(rec.Writes) > 0 || len(rec.Release) > 0 || len(rec.Quorum) > 0
	if !v2 {
		dst = append(dst, binMarker, binVersion)
	} else {
		dst = append(dst, binMarker, binVersion2, byte(rec.Type))
	}
	dst = binary.AppendUvarint(dst, uint64(len(rec.TxID)))
	dst = append(dst, rec.TxID...)
	dst = binary.AppendVarint(dst, int64(rec.Block))
	dst = binary.AppendUvarint(dst, uint64(len(rec.Key)))
	dst = append(dst, rec.Key...)
	dst = binary.AppendUvarint(dst, rec.Version)
	dst, err := wire.AppendValue(dst, rec.Value)
	if err != nil || !v2 {
		return dst, err
	}
	if rec.Commit {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(rec.Writes)))
	for i := range rec.Writes {
		w := &rec.Writes[i]
		dst = binary.AppendUvarint(dst, uint64(len(w.ID)))
		dst = append(dst, w.ID...)
		if dst, err = wire.AppendValue(dst, w.Value); err != nil {
			return nil, err
		}
		dst = binary.AppendUvarint(dst, w.NewVersion)
		dst = binary.AppendVarint(dst, int64(w.Block))
	}
	dst = binary.AppendUvarint(dst, uint64(len(rec.Release)))
	for _, id := range rec.Release {
		dst = binary.AppendUvarint(dst, uint64(len(id)))
		dst = append(dst, id...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(rec.Quorum)))
	for _, n := range rec.Quorum {
		dst = binary.AppendVarint(dst, int64(n))
	}
	return dst, nil
}

// AppendRecordFrame appends rec as a complete CRC-framed binary record
// (header + payload) to dst — the append-path equivalent of writeFrame,
// allocation-free once dst has capacity.
func AppendRecordFrame(dst []byte, rec *Record) ([]byte, error) {
	head := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // header backfilled below
	dst, err := AppendRecord(dst, rec)
	if err != nil {
		return dst[:head], err
	}
	payload := dst[head+8:]
	binary.BigEndian.PutUint32(dst[head:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[head+4:], crc32Sum(payload))
	return dst, nil
}

// decodeRecordPayload parses one CRC-valid, non-empty frame payload. A
// gob-era payload returns errLegacyPayload; a structural error is returned
// as a bare reason wrapped by the caller into a BadRecordError with file
// position.
func decodeRecordPayload(payload []byte) (*Record, error) {
	if payload[0] != binMarker {
		return nil, errLegacyPayload
	}
	if len(payload) < 2 {
		return nil, fmt.Errorf("binary record truncated before version byte")
	}
	version := payload[1]
	if version != binVersion && version != binVersion2 {
		return nil, fmt.Errorf("binary record version byte %d out of range (know %d and %d)",
			version, binVersion, binVersion2)
	}
	rec := &Record{}
	buf := payload[2:]
	if version == binVersion2 {
		if len(buf) < 1 {
			return nil, fmt.Errorf("v2 record truncated before type byte")
		}
		if buf[0] > byte(RecordDecision) {
			return nil, fmt.Errorf("record type byte %d out of range", buf[0])
		}
		rec.Type = RecordType(buf[0])
		buf = buf[1:]
	}
	var s string
	var err error
	if s, buf, err = takeString(buf); err != nil {
		return nil, fmt.Errorf("TxID: %v", err)
	}
	rec.TxID = s
	block, n := binary.Varint(buf)
	if n <= 0 {
		return nil, fmt.Errorf("truncated Block varint")
	}
	rec.Block = int(block)
	buf = buf[n:]
	if s, buf, err = takeString(buf); err != nil {
		return nil, fmt.Errorf("Key: %v", err)
	}
	rec.Key = store.ObjectID(s)
	ver, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, fmt.Errorf("truncated Version uvarint")
	}
	rec.Version = ver
	buf = buf[n:]
	v, used, err := wire.DecodeValue(buf)
	if err != nil {
		return nil, fmt.Errorf("Value: %v", err)
	}
	rec.Value = v
	buf = buf[used:]
	if version == binVersion {
		if len(buf) != 0 {
			return nil, fmt.Errorf("%d trailing bytes after value", len(buf))
		}
		return rec, nil
	}
	if len(buf) < 1 {
		return nil, fmt.Errorf("truncated Commit byte")
	}
	rec.Commit = buf[0] != 0
	buf = buf[1:]
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, fmt.Errorf("truncated Writes count")
	}
	buf = buf[n:]
	if count > uint64(len(buf)) {
		return nil, fmt.Errorf("Writes count %d exceeds remaining %d bytes", count, len(buf))
	}
	if count > 0 {
		rec.Writes = make([]store.WriteDesc, 0, count)
		for i := uint64(0); i < count; i++ {
			var w store.WriteDesc
			if s, buf, err = takeString(buf); err != nil {
				return nil, fmt.Errorf("write %d ID: %v", i, err)
			}
			w.ID = store.ObjectID(s)
			if w.Value, used, err = wire.DecodeValue(buf); err != nil {
				return nil, fmt.Errorf("write %d value: %v", i, err)
			}
			buf = buf[used:]
			if w.NewVersion, n = binary.Uvarint(buf); n <= 0 {
				return nil, fmt.Errorf("write %d truncated version", i)
			}
			buf = buf[n:]
			if block, n = binary.Varint(buf); n <= 0 {
				return nil, fmt.Errorf("write %d truncated block", i)
			}
			w.Block = int(block)
			buf = buf[n:]
			rec.Writes = append(rec.Writes, w)
		}
	}
	if count, n = binary.Uvarint(buf); n <= 0 {
		return nil, fmt.Errorf("truncated Release count")
	}
	buf = buf[n:]
	if count > uint64(len(buf)) {
		return nil, fmt.Errorf("Release count %d exceeds remaining %d bytes", count, len(buf))
	}
	if count > 0 {
		rec.Release = make([]store.ObjectID, 0, count)
		for i := uint64(0); i < count; i++ {
			if s, buf, err = takeString(buf); err != nil {
				return nil, fmt.Errorf("release %d: %v", i, err)
			}
			rec.Release = append(rec.Release, store.ObjectID(s))
		}
	}
	if count, n = binary.Uvarint(buf); n <= 0 {
		return nil, fmt.Errorf("truncated Quorum count")
	}
	buf = buf[n:]
	if count > uint64(len(buf)) {
		return nil, fmt.Errorf("Quorum count %d exceeds remaining %d bytes", count, len(buf))
	}
	if count > 0 {
		rec.Quorum = make([]quorum.NodeID, 0, count)
		for i := uint64(0); i < count; i++ {
			var id int64
			if id, n = binary.Varint(buf); n <= 0 {
				return nil, fmt.Errorf("quorum %d truncated", i)
			}
			buf = buf[n:]
			rec.Quorum = append(rec.Quorum, quorum.NodeID(id))
		}
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after quorum", len(buf))
	}
	return rec, nil
}

// takeString reads a uvarint-prefixed string, validating the length against
// the remaining bytes.
func takeString(buf []byte) (string, []byte, error) {
	n, used := binary.Uvarint(buf)
	if used <= 0 {
		return "", nil, fmt.Errorf("truncated length")
	}
	buf = buf[used:]
	if n > uint64(len(buf)) {
		return "", nil, fmt.Errorf("length %d exceeds remaining %d bytes", n, len(buf))
	}
	return string(buf[:n]), buf[n:], nil
}

// appendSnapshotBody appends the binary snapshot payload: marker, version,
// object count, then each object as str ID | value | uvarint NewVersion |
// varint Block.
func appendSnapshotBody(dst []byte, objs []store.WriteDesc) ([]byte, error) {
	dst = append(dst, binMarker, binVersion)
	dst = binary.AppendUvarint(dst, uint64(len(objs)))
	var err error
	for i := range objs {
		o := &objs[i]
		dst = binary.AppendUvarint(dst, uint64(len(o.ID)))
		dst = append(dst, o.ID...)
		if dst, err = wire.AppendValue(dst, o.Value); err != nil {
			return nil, err
		}
		dst = binary.AppendUvarint(dst, o.NewVersion)
		dst = binary.AppendVarint(dst, int64(o.Block))
	}
	return dst, nil
}

// decodeSnapshotBody parses a snapshot payload. A gob-era payload returns
// errLegacyPayload.
func decodeSnapshotBody(payload []byte) ([]store.WriteDesc, error) {
	if len(payload) > 0 && payload[0] != binMarker {
		return nil, errLegacyPayload
	}
	if len(payload) < 2 || payload[1] != binVersion {
		return nil, fmt.Errorf("snapshot version byte out of range")
	}
	buf := payload[2:]
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, fmt.Errorf("truncated object count")
	}
	buf = buf[n:]
	if count > uint64(len(buf)) {
		return nil, fmt.Errorf("object count %d exceeds remaining %d bytes", count, len(buf))
	}
	objs := make([]store.WriteDesc, 0, count)
	for i := uint64(0); i < count; i++ {
		var o store.WriteDesc
		s, rest, err := takeString(buf)
		if err != nil {
			return nil, fmt.Errorf("object %d ID: %v", i, err)
		}
		o.ID = store.ObjectID(s)
		buf = rest
		v, used, err := wire.DecodeValue(buf)
		if err != nil {
			return nil, fmt.Errorf("object %d value: %v", i, err)
		}
		o.Value = v
		buf = buf[used:]
		ver, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("object %d truncated version", i)
		}
		o.NewVersion = ver
		buf = buf[n:]
		block, n := binary.Varint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("object %d truncated block", i)
		}
		o.Block = int(block)
		buf = buf[n:]
		objs = append(objs, o)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after objects", len(buf))
	}
	return objs, nil
}
