package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"qracn/internal/store"
)

// formatFixture exercises every value tag the binary layout knows plus the
// nil (deleted-object) case.
func formatFixture() []Record {
	return []Record{
		{TxID: "tx-1", Block: 0, Key: "acct/1", Version: 3, Value: store.Int64(-42)},
		{TxID: "tx-1", Block: 2, Key: "acct/2", Version: 1, Value: store.String("carol")},
		{TxID: "tx-2", Block: 1, Key: "blob/9", Version: 7, Value: store.Bytes{0x00, 0xFF, 0x10}},
		{TxID: "tx-2", Block: -1, Key: "rate/x", Version: 2, Value: store.Float64(2.5)},
		{TxID: "tx-3", Block: 4, Key: "row/8", Version: 11,
			Value: store.Tuple{store.Int64(1), store.String("nested"), store.Tuple{store.Float64(9)}}},
		{TxID: "tx-4", Block: 0, Key: "gone/3", Version: 5, Value: nil},
	}
}

// TestRecordFormatsRoundTrip appends the fixture and checks that
// ScanSegment reads back every record and that recovery reconstructs
// identical state.
func TestRecordFormatsRoundTrip(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		dir := t.TempDir()
		l, _, err := Open(dir, Options{FsyncInterval: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		recs := formatFixture()
		if err := l.Append(recs...); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		segs, err := Segments(dir)
		if err != nil || len(segs) == 0 {
			t.Fatalf("segments: %v %v", segs, err)
		}
		var scanned []Record
		n, err := ScanSegment(segs[0], func(r *Record, _ int64) error {
			scanned = append(scanned, *r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != len(recs) {
			t.Fatalf("scanned %d records, want %d", n, len(recs))
		}
		for i := range recs {
			if !reflect.DeepEqual(scanned[i], recs[i]) {
				t.Errorf("record %d: got %+v want %+v", i, scanned[i], recs[i])
			}
		}

		_, r2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		st := stateOf(r2)
		if len(st) != len(recs) {
			t.Fatalf("recovered %d objects, want %d", len(st), len(recs))
		}
		for _, want := range recs {
			got := st[want.Key]
			if got.NewVersion != want.Version || !reflect.DeepEqual(got.Value, want.Value) {
				t.Errorf("%s recovered as %+v, want version %d value %v",
					want.Key, got, want.Version, want.Value)
			}
		}
	})
}

// copyDir copies a testdata WAL directory into a fresh temp dir (Open
// writes to the directory it recovers) and returns the copy with the bytes
// of every file in it.
func copyDir(t *testing.T, src string) (string, map[string][]byte) {
	t.Helper()
	dir := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return dir, files
}

// assertUntouched fails unless dir holds exactly the given files, byte for
// byte.
func assertUntouched(t *testing.T, dir string, want map[string][]byte) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(want) {
		t.Fatalf("%s holds %d files after the refused open, want %d", dir, len(ents), len(want))
	}
	for name, b := range want {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, b) {
			t.Fatalf("%s changed by the refused open", name)
		}
	}
}

// TestOpenRefusesGobEraDirectory is the format break: testdata/gob-era
// holds one gob snapshot and one gob segment, written by the last release
// that could produce them. Open must fail with a LegacyFormatError naming the
// file and the upgrade step, and leave every byte in place — neither skip
// the snapshot (its segments are compacted away) nor truncate the segment
// as a torn tail (its records are acknowledged commits).
func TestOpenRefusesGobEraDirectory(t *testing.T) {
	const src = "testdata/gob-era"
	for _, tc := range []struct {
		name  string
		files []string // subset of src to copy; nil = all
		bad   string
	}{
		{"snapshot and segment", nil, "snap-00000002.db"},
		{"segment only", []string{"wal-00000002.log"}, "wal-00000002.log"},
	} {
		dir, files := copyDir(t, src)
		if tc.files != nil {
			for name := range files {
				if name != tc.files[0] {
					os.Remove(filepath.Join(dir, name))
					delete(files, name)
				}
			}
		}
		_, _, err := Open(dir, Options{})
		var legacy *LegacyFormatError
		if !errors.As(err, &legacy) {
			t.Fatalf("%s: Open err = %v, want LegacyFormatError", tc.name, err)
		}
		if filepath.Base(legacy.Path) != tc.bad || legacy.Offset != 0 {
			t.Fatalf("%s: error names %s at offset %d, want %s at 0", tc.name, legacy.Path, legacy.Offset, tc.bad)
		}
		for _, want := range []string{tc.bad, "gob", "SIGTERM"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q does not mention %q", tc.name, err, want)
			}
		}
		assertUntouched(t, dir, files)
	}
}

// TestParentBinaryDirectoryReplays: testdata/binary-era was written in the
// binary format by the last release that still carried the gob code. It
// must replay exactly as that release replayed it.
func TestParentBinaryDirectoryReplays(t *testing.T) {
	dir, _ := copyDir(t, "testdata/binary-era")
	l, r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if r.SnapshotObjects != 2 || r.LogRecords != 5 || r.TornTail {
		t.Fatalf("replayed %d snapshot objects + %d records (torn %v), want 2 + 5",
			r.SnapshotObjects, r.LogRecords, r.TornTail)
	}
	want := map[store.ObjectID]store.WriteDesc{
		"acct/1": {ID: "acct/1", Value: store.Int64(21), NewVersion: 2, Block: 0},
		"acct/2": {ID: "acct/2", Value: store.String("carol"), NewVersion: 1, Block: 1},
		"row/3": {ID: "row/3", NewVersion: 1, Block: 2,
			Value: store.Tuple{store.Int64(1), store.Bytes{0x00, 0xff}, store.Float64(2.5)}},
	}
	if got := stateOf(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("state = %+v\nwant %+v", got, want)
	}
	if len(r.InDoubt) != 1 || !reflect.DeepEqual(r.InDoubt[0], prepareRec("c1-t3-a0")) {
		t.Fatalf("in doubt = %+v", r.InDoubt)
	}
	if !reflect.DeepEqual(r.Decided, map[string]bool{"c1-t4-a0": true}) {
		t.Fatalf("decided = %v", r.Decided)
	}
}

// writeRawFrame appends one CRC-valid frame with the given payload to path.
func writeRawFrame(t *testing.T, path string, payload []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32Sum(payload))
	if _, err := f.Write(append(hdr[:], payload...)); err != nil {
		t.Fatal(err)
	}
}

// scanFailure classifies a ScanSegment or Open error as "torn", "bad" or
// "legacy" and returns the offset it names.
func scanFailure(err error) (string, int64) {
	var torn *TornTailError
	var bad *BadRecordError
	var legacy *LegacyFormatError
	switch {
	case errors.As(err, &torn):
		return "torn", torn.Offset
	case errors.As(err, &bad):
		return "bad", bad.Offset
	case errors.As(err, &legacy):
		return "legacy", legacy.Offset
	}
	return fmt.Sprint(err), -1
}

// TestBadRecordDistinguishedFromTornTail appends one CRC-valid frame after
// an intact record and checks how ScanSegment classifies it and what
// recovery does with it:
//
//   - a malformed binary payload is a BadRecordError (inspection fails
//     loudly) that recovery truncates like a torn tail;
//   - a gob-era payload (first byte not the binary marker) is a
//     LegacyFormatError that recovery refuses, truncating nothing;
//   - an empty payload (a zero-filled tail) is a torn tail.
func TestBadRecordDistinguishedFromTornTail(t *testing.T) {
	good, err := AppendRecordFrame(nil, &Record{TxID: "t", Key: "k", Version: 1, Value: store.Int64(5)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		payload []byte
		want    string
	}{
		{[]byte{binMarker, 0x7F, 'x'}, "bad"}, // future/invalid version byte
		{[]byte{binMarker}, "bad"},            // truncated before version byte
		{[]byte{0x42, 0x99, 0x01}, "legacy"},  // gob-era signature
		{[]byte{}, "torn"},                    // zero-filled tail
	} {
		dir := t.TempDir()
		path := segmentPath(dir, 1)
		if err := os.WriteFile(path, good, 0o644); err != nil {
			t.Fatal(err)
		}
		writeRawFrame(t, path, tc.payload)
		size := int64(len(good) + 8 + len(tc.payload))

		n, err := ScanSegment(path, nil)
		if got, off := scanFailure(err); got != tc.want || off != int64(len(good)) || n != 1 {
			t.Fatalf("payload %x: ScanSegment = %d records then %s at %d, want 1 then %s at %d",
				tc.payload, n, got, off, tc.want, len(good))
		}

		l, r, err := Open(dir, Options{})
		if tc.want == "legacy" {
			if got, _ := scanFailure(err); got != "legacy" {
				t.Fatalf("payload %x: Open err = %v, want LegacyFormatError", tc.payload, err)
			}
			if fi, _ := os.Stat(path); fi.Size() != size {
				t.Fatalf("payload %x: refused open resized the segment to %d", tc.payload, fi.Size())
			}
			continue
		}
		if err != nil {
			t.Fatalf("payload %x: Open: %v", tc.payload, err)
		}
		l.Close()
		if !r.TornTail || r.LogRecords != 1 {
			t.Fatalf("payload %x: recovered %d records, torn %v; want 1 record and a truncated tail",
				tc.payload, r.LogRecords, r.TornTail)
		}
		if fi, _ := os.Stat(path); fi.Size() != int64(len(good)) {
			t.Fatalf("payload %x: segment is %d bytes after recovery, want %d", tc.payload, fi.Size(), len(good))
		}
	}
}

// TestRecordEncodeAllocs pins the binary append path at zero allocations per
// record once the scratch buffer is warm — the property that lets the WAL
// hot path stage records without garbage.
func TestRecordEncodeAllocs(t *testing.T) {
	r := rec("acct/warm", 9, 1234)
	buf, err := AppendRecordFrame(nil, &r)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = AppendRecordFrame(buf[:0], &r)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("binary record encode: %v allocs/op, want 0", allocs)
	}
}

func benchRecord() Record {
	return Record{
		TxID:    "tx-ycsb-000042-7",
		Block:   3,
		Key:     "usertable/row-00001234",
		Version: 98765,
		Value:   store.String("field0=AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"),
	}
}

func BenchmarkRecordEncodeBinary(b *testing.B) {
	r := benchRecord()
	buf, err := AppendRecordFrame(nil, &r)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = AppendRecordFrame(buf[:0], &r)
	}
	_ = buf
}

func BenchmarkRecordDecodeBinary(b *testing.B) {
	r := benchRecord()
	frame, err := AppendRecordFrame(nil, &r)
	if err != nil {
		b.Fatal(err)
	}
	payload := frame[8:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeRecordPayload(payload); err != nil {
			b.Fatal(err)
		}
	}
}
