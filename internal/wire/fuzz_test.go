package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"testing"
	"time"

	"qracn/internal/forensics"
	"qracn/internal/store"
)

// FuzzReadFrame hardens the frame reader against malformed input: whatever
// bytes a broken or malicious peer sends, the binary decoder must return an
// error or an envelope — never panic, and never hold or yield more than
// MaxFrameSize bytes.
func FuzzReadFrame(f *testing.F) {
	// Seed corpus: valid plain and compressed frames plus truncations.
	var plain bytes.Buffer
	_ = NewBinaryEncoder(&plain, false).Encode(&Envelope{Seq: 1, Req: &Request{Kind: KindPing, TxID: "hello quorum"}})
	f.Add(plain.Bytes())

	var comp bytes.Buffer
	_ = NewBinaryEncoder(&comp, true).Encode(bytesEnv(bytes.Repeat([]byte("warehouse district "), 100)))
	f.Add(comp.Bytes())

	f.Add([]byte{})
	f.Add(rawFrame(binFlagCompressed, []byte("ab")))              // claims compressed, garbage body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 1, 2, 3}) // oversized length
	f.Add(plain.Bytes()[:3])                                      // truncated header
	f.Add(append(bytes.Clone(plain.Bytes()), comp.Bytes()...))    // concatenated frames

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewBinaryDecoder(bytes.NewReader(data))
		env, err := dec.Decode()
		if len(dec.frame) > MaxFrameSize {
			t.Fatalf("decoder holds a %d-byte frame, past the limit", len(dec.frame))
		}
		if err != nil {
			return
		}
		if payload, err := AppendEnvelope(nil, env); err == nil && len(payload) > MaxFrameSize {
			t.Fatalf("decoded a %d-byte payload, past the frame limit", len(payload))
		}
	})
}

// rawFrame builds one binary frame around an arbitrary payload with a valid
// CRC, so a seed reaches the code behind the integrity check.
func rawFrame(flags byte, payload []byte) []byte {
	frame := make([]byte, binHeaderSize, binHeaderSize+len(payload))
	binary.BigEndian.PutUint32(frame[:4], uint32(len(payload)))
	frame[4] = flags
	binary.BigEndian.PutUint32(frame[5:], crc32.Checksum(payload, binCRC))
	return append(frame, payload...)
}

// FuzzEnvelopeRoundTrip checks that every envelope the binary decoder
// accepts re-encodes and decodes back identically, and that arbitrary bytes
// never panic the decoder.
func FuzzEnvelopeRoundTrip(f *testing.F) {
	encode := func(env *Envelope, compress bool) []byte {
		var buf bytes.Buffer
		_ = NewBinaryEncoder(&buf, compress).Encode(env)
		return buf.Bytes()
	}
	f.Add(encode(&Envelope{Seq: 1, Req: &Request{Kind: KindPing, TxID: "t"}}, false))
	f.Add([]byte("not an envelope at all"))

	// Batch envelopes, plain and compressed: many repetitive sub-requests
	// push the compressed variant past CompressThreshold.
	subs := make([]*Request, 40)
	for i := range subs {
		subs[i] = &Request{Kind: KindRead, TxID: "batch-sub", Read: &ReadRequest{Object: "warehouse/stock/item"}}
	}
	batch := &Envelope{Seq: 2, Req: &Request{Kind: KindBatch, Batch: &BatchRequest{Subs: subs}}}
	compBatch := encode(batch, true)
	f.Add(encode(batch, false))
	f.Add(compBatch)
	f.Add(compBatch[:len(compBatch)/2]) // truncated compressed batch

	f.Add(encode(&Envelope{Seq: 3, Cancel: true}, false))

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := NewBinaryDecoder(bytes.NewReader(data)).Decode()
		if err != nil {
			return
		}
		checkRoundTrip(t, env, true)
	})
}

// FuzzBinaryRoundTrip is the binary codec's completeness oracle. The fuzz
// bytes drive a filler that sets EVERY exported field of Envelope, Request,
// Response and their sub-structs to a non-zero value, so a field the codec
// forgets to encode (or Clone forgets to copy) fails here even though no
// hand-written fixture sets it. The same bytes are also fed to the decoder
// as a raw payload, which must never panic. The kind fixtures, encoded, are
// the seeds.
func FuzzBinaryRoundTrip(f *testing.F) {
	for k := Kind(0); k < numKinds; k++ {
		payload, _ := AppendEnvelope(nil, &Envelope{Seq: 3, Req: kindFixtures[k]})
		f.Add(payload)
	}
	resp, _ := AppendEnvelope(nil, &Envelope{
		Seq: 4, IsResponse: true,
		Resp: &Response{Status: StatusOK, Read: &ReadResponse{
			Value: store.Tuple{store.Int64(1), store.Bytes("b")}, Version: 2,
			Stats: map[store.ObjectID]float64{"a": 0.5},
		}},
	})
	f.Add(resp)
	f.Add([]byte{0xC6, 2, 0, 0, 0, 2, 0, 0, 0, 0, 0, 1, 0}) // preamble + tiny frame

	f.Fuzz(func(t *testing.T, data []byte) {
		if env, err := DecodeEnvelope(data); err == nil {
			checkRoundTrip(t, env, false)
		}
		fl := newFiller(data)
		env := &Envelope{}
		fl.fill(reflect.ValueOf(env).Elem(), 0)
		checkRoundTrip(t, env, fl.byte()%2 == 0)
	})
}

// checkRoundTrip asserts that env survives Clone and one binary frame round
// trip unchanged (after normalizeEnvelope). env is normalized in place.
func checkRoundTrip(t *testing.T, env *Envelope, compress bool) {
	t.Helper()
	normalizeEnvelope(env)
	if got := env.Req.Clone(); !reflect.DeepEqual(got, env.Req) {
		t.Fatalf("Request.Clone changed %s", firstDiff(reflect.ValueOf(got), reflect.ValueOf(env.Req), "Req"))
	}
	if got := env.Resp.Clone(); !reflect.DeepEqual(got, env.Resp) {
		t.Fatalf("Response.Clone changed %s", firstDiff(reflect.ValueOf(got), reflect.ValueOf(env.Resp), "Resp"))
	}
	var buf bytes.Buffer
	if err := NewBinaryEncoder(&buf, compress).Encode(env); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := NewBinaryDecoder(&buf).Decode()
	if err != nil {
		t.Fatalf("binary cannot decode its own frame: %v", err)
	}
	normalizeEnvelope(got)
	if !reflect.DeepEqual(got, env) {
		t.Fatalf("round trip changed %s", firstDiff(reflect.ValueOf(got), reflect.ValueOf(env), "Envelope"))
	}
}

// firstDiff names the first field path at which got and want differ, with
// both values.
func firstDiff(got, want reflect.Value, path string) string {
	if got.IsValid() != want.IsValid() || got.IsValid() && got.Type() != want.Type() {
		return fmt.Sprintf("%s: got %v, want %v", path, got, want)
	}
	if !got.IsValid() {
		return ""
	}
	switch got.Kind() {
	case reflect.Pointer, reflect.Interface:
		if got.IsNil() != want.IsNil() {
			return fmt.Sprintf("%s: got %v, want %v", path, got, want)
		}
		if !got.IsNil() {
			return firstDiff(got.Elem(), want.Elem(), path)
		}
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			if !got.Type().Field(i).IsExported() {
				continue
			}
			if d := firstDiff(got.Field(i), want.Field(i), path+"."+got.Type().Field(i).Name); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if got.Len() != want.Len() || got.IsNil() != want.IsNil() {
			return fmt.Sprintf("%s: got %v, want %v", path, got, want)
		}
		for i := 0; i < got.Len(); i++ {
			if d := firstDiff(got.Index(i), want.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	}
	if !reflect.DeepEqual(got.Interface(), want.Interface()) {
		return fmt.Sprintf("%s: got %v, want %v", path, got, want)
	}
	return ""
}

// filler sets every exported field of a message struct to a non-zero value
// drawn from a byte string. Slices and maps get one to three elements;
// recursion (batch subs, nested tuples) is a chain one element wide, cut
// off at a depth drawn from the bytes and at most maxBinaryDepth, counted
// the way the codec counts it. A field of a type it has no rule for fails
// the test, so a new field cannot be skipped silently.
type filler struct {
	data     []byte
	pos      int
	maxDepth int
}

func newFiller(data []byte) *filler {
	f := &filler{data: data}
	f.maxDepth = 2 + int(f.byte())%(maxBinaryDepth-1)
	return f
}

// byte returns the next input byte; past the end of the input it continues
// with a fixed non-constant sequence.
func (f *filler) byte() byte {
	f.pos++
	if f.pos <= len(f.data) {
		return f.data[f.pos-1]
	}
	return byte(f.pos * 151)
}

// bits returns a non-zero value of at most n bits, with its magnitude drawn
// too so small and large encodings both occur.
func (f *filler) bits(n int) uint64 {
	var u uint64
	for i := 0; i < 8; i++ {
		u = u<<8 | uint64(f.byte())
	}
	u >>= 64 - n + int(f.byte())%n
	if u == 0 {
		u = 1
	}
	return u
}

func (f *filler) str() string {
	b := make([]byte, 1+int(f.byte())%8)
	for i := range b {
		b[i] = f.byte()
	}
	return string(b)
}

var (
	timeType  = reflect.TypeOf(time.Time{})
	valueType = reflect.TypeOf((*store.Value)(nil)).Elem()
	reqPtr    = reflect.TypeOf(&Request{})
	respPtr   = reflect.TypeOf(&Response{})
	batchReq  = reflect.TypeOf(&BatchRequest{})
	batchResp = reflect.TypeOf(&BatchResponse{})
	// byteEnums are the enum types the codec carries in one byte, with the
	// number of values each may take.
	byteEnums = map[reflect.Type]uint64{
		reflect.TypeOf(Kind(0)):                    uint64(numKinds),
		reflect.TypeOf(forensics.Cause(0)):         256,
		reflect.TypeOf(forensics.RefusalReason(0)): 256,
	}
)

// fill sets v, a field at codec nesting level depth (0 above the message).
func (f *filler) fill(v reflect.Value, depth int) {
	t := v.Type()
	if n, ok := byteEnums[t]; ok {
		x := 1 + uint64(f.byte())%(n-1)
		if v.CanInt() {
			v.SetInt(int64(x))
		} else {
			v.SetUint(x)
		}
		return
	}
	switch t {
	case timeType:
		v.Set(reflect.ValueOf(time.Unix(0, int64(f.bits(64)))))
		return
	case valueType:
		v.Set(reflect.ValueOf(f.value(depth + 1)))
		return
	case reqPtr, respPtr:
		depth++ // a message is one level below its parent
	case batchReq, batchResp:
		// The chain ends where a sub-message's values would pass the cut-off.
		if depth+2 > f.maxDepth {
			return
		}
	}
	switch t.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(f.bits(t.Bits())))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(f.bits(t.Bits()))
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(f.bits(64)))
	case reflect.String:
		v.SetString(f.str())
	case reflect.Pointer:
		if t.Elem().Kind() != reflect.Struct {
			panic(fmt.Sprintf("filler: no rule for %s", t))
		}
		p := reflect.New(t.Elem())
		f.fill(p.Elem(), depth)
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).IsExported() {
				f.fill(v.Field(i), depth)
			}
		}
	case reflect.Slice:
		n := 1 + int(f.byte())%3
		if e := t.Elem(); e == reqPtr || e == respPtr {
			n = 1
		}
		s := reflect.MakeSlice(t, n, n)
		for i := 0; i < n; i++ {
			f.fill(s.Index(i), depth)
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(t)
		for n := 1 + int(f.byte())%3; n > 0; n-- {
			k, e := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
			f.fill(k, depth)
			f.fill(e, depth)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	default:
		panic(fmt.Sprintf("filler: no rule for %s", t))
	}
}

// value draws a non-nil built-in Value at codec nesting level depth. A
// tuple's last element may itself be a tuple, one level deeper.
func (f *filler) value(depth int) store.Value {
	switch f.byte() % 5 {
	case 0:
		return store.Int64(f.bits(64))
	case 1:
		return store.Float64(math.Float64frombits(f.bits(64)))
	case 2:
		return store.String(f.str())
	case 3:
		return store.Bytes(f.str())
	}
	if depth >= f.maxDepth {
		return store.Int64(f.bits(64))
	}
	tup := store.Tuple{store.String(f.str()), store.Int64(f.bits(64))}[:1+int(f.byte())%2]
	return append(tup, f.value(depth+1))
}

// normalizeEnvelope collapses, in place, the two differences that are not
// codec defects:
//
//   - time.Time: the codec keeps the UnixNano instant, not the zone or the
//     monotonic reading, so times collapse to time.Unix(0, UnixNano).UTC.
//   - NaN: reflect.DeepEqual uses ==, under which NaN != NaN, so NaNs
//     collapse to a sentinel.
func normalizeEnvelope(env *Envelope) {
	if env.Req != nil {
		normalizeRequest(env.Req, 0)
	}
	if env.Resp != nil {
		normalizeResponse(env.Resp, 0)
	}
}

func normalizeRequest(r *Request, depth int) {
	if r == nil || depth > maxBinaryDepth {
		return
	}
	if r.Prepare != nil {
		normalizeWrites(r.Prepare.Writes)
	}
	if r.Decision != nil {
		normalizeWrites(r.Decision.Writes)
	}
	if r.Resolve != nil {
		normalizeWrites(r.Resolve.Writes)
	}
	if r.Repair != nil {
		r.Repair.Value = normalizeValue(r.Repair.Value, depth)
	}
	if r.Batch != nil {
		for _, sub := range r.Batch.Subs {
			normalizeRequest(sub, depth+1)
		}
	}
}

func normalizeResponse(r *Response, depth int) {
	if r == nil || depth > maxBinaryDepth {
		return
	}
	if r.Read != nil {
		r.Read.Value = normalizeValue(r.Read.Value, depth)
		normalizeLevels(r.Read.Stats)
	}
	if r.Stats != nil {
		normalizeLevels(r.Stats.Levels)
	}
	if r.Sync != nil {
		normalizeWrites(r.Sync.Objects)
	}
	if r.Batch != nil {
		for _, sub := range r.Batch.Subs {
			normalizeResponse(sub, depth+1)
		}
	}
	if r.Trace != nil {
		for i := range r.Trace.Spans {
			s := &r.Trace.Spans[i]
			s.Start = normalizeTime(s.Start)
			s.End = normalizeTime(s.End)
		}
		for i := range r.Trace.Events {
			r.Trace.Events[i].At = normalizeTime(r.Trace.Events[i].At)
		}
	}
	if r.Forensics != nil {
		for i := range r.Forensics.Aborts {
			r.Forensics.Aborts[i].At = normalizeTime(r.Forensics.Aborts[i].At)
		}
		for i := range r.Forensics.Recomposes {
			rc := &r.Forensics.Recomposes[i]
			rc.At = normalizeTime(rc.At)
			for j := range rc.Levels {
				if math.IsNaN(rc.Levels[j].Level) {
					rc.Levels[j].Level = math.MaxFloat64
				}
			}
		}
		for i := range r.Forensics.HotKeys {
			r.Forensics.HotKeys[i].At = normalizeTime(r.Forensics.HotKeys[i].At)
		}
	}
}

func normalizeWrites(writes []store.WriteDesc) {
	for i := range writes {
		writes[i].Value = normalizeValue(writes[i].Value, 0)
	}
}

func normalizeLevels(levels map[store.ObjectID]float64) {
	for k, v := range levels {
		if math.IsNaN(v) {
			levels[k] = math.MaxFloat64
		}
	}
}

func normalizeValue(v store.Value, depth int) store.Value {
	if depth > maxBinaryDepth {
		return v
	}
	switch x := v.(type) {
	case store.Float64:
		if math.IsNaN(float64(x)) {
			return store.Float64(math.MaxFloat64)
		}
	case store.Tuple:
		for i := range x {
			x[i] = normalizeValue(x[i], depth+1)
		}
	}
	return v
}

func normalizeTime(t time.Time) time.Time {
	if t.IsZero() {
		return time.Time{}
	}
	return time.Unix(0, t.UnixNano()).UTC()
}
