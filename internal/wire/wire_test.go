package wire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"qracn/internal/store"
)

func sampleRequest() *Request {
	return &Request{
		Kind: KindRead,
		TxID: "tx-1",
		Read: &ReadRequest{
			Object: "district/1/2",
			Validate: []store.ReadDesc{
				{ID: "warehouse/1", Version: 3},
				{ID: "customer/1/2/3", Version: 9},
			},
			StatsFor: []store.ObjectID{"district/1/2"},
		},
	}
}

// marshalRoundTrip pushes env through the binary payload layer
// (AppendEnvelope/DecodeEnvelope, no frame).
func marshalRoundTrip(t *testing.T, env *Envelope) *Envelope {
	t.Helper()
	data, err := AppendEnvelope(nil, env)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeEnvelope(data)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// frameRoundTrip pushes env through one binary encoder/decoder pair (CRC
// frame, optional compression) and returns the decoded envelope together
// with the frame's size on the wire.
func frameRoundTrip(t *testing.T, env *Envelope, compress bool) (*Envelope, int) {
	t.Helper()
	var buf bytes.Buffer
	if err := NewBinaryEncoder(&buf, compress).Encode(env); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	out, err := NewBinaryDecoder(&buf).Decode()
	if err != nil {
		t.Fatal(err)
	}
	return out, n
}

// bytesEnv carries payload as a repair value, so a test controls the size
// and compressibility of a frame.
func bytesEnv(payload []byte) *Envelope {
	return &Envelope{Seq: 1, Req: &Request{
		Kind:   KindRepair,
		Repair: &RepairRequest{Object: "blob", Value: store.Bytes(payload), Version: 1},
	}}
}

func TestMarshalRoundTripRequest(t *testing.T) {
	in := &Envelope{Req: sampleRequest()}
	if out := marshalRoundTrip(t, in); !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in.Req, out.Req)
	}
}

func TestMarshalRoundTripResponseWithValues(t *testing.T) {
	in := &Envelope{IsResponse: true, Resp: &Response{
		Status: StatusOK,
		Read: &ReadResponse{
			Value:   store.Tuple{store.Int64(5), store.String("x"), store.Bytes{1, 2}},
			Version: 7,
			Invalid: []store.ObjectID{"a"},
			Stats:   map[store.ObjectID]float64{"a": 2.5},
		},
	}}
	if out := marshalRoundTrip(t, in); !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in.Resp, out.Resp)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		for _, size := range []int{0, 1, CompressThreshold, CompressThreshold + 1, 100000} {
			payload := bytes.Repeat([]byte("abcdefgh"), size/8+1)[:size]
			got, _ := frameRoundTrip(t, bytesEnv(payload), compress)
			if !bytes.Equal(got.Req.Repair.Value.(store.Bytes), payload) {
				t.Fatalf("compress=%v size=%d: payload mismatch", compress, size)
			}
		}
	}
}

func TestCompressionShrinksRedundantPayload(t *testing.T) {
	env := bytesEnv(bytes.Repeat([]byte("warehouse/1 district/1 "), 200))
	_, plain := frameRoundTrip(t, env, false)
	_, comp := frameRoundTrip(t, env, true)
	if comp >= plain {
		t.Fatalf("compressed frame (%d) not smaller than plain (%d)", comp, plain)
	}
}

func TestIncompressiblePayloadKeptPlain(t *testing.T) {
	// Already-compressed-looking data: flate output would be larger, so the
	// frame must fall back to the plain payload and still round-trip.
	payload := make([]byte, 4096)
	x := uint32(2463534242)
	for i := range payload {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		payload[i] = byte(x)
	}
	var buf bytes.Buffer
	if err := NewBinaryEncoder(&buf, true).Encode(bytesEnv(payload)); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[4]&binFlagCompressed != 0 {
		t.Fatal("incompressible payload sent compressed")
	}
	got, err := NewBinaryDecoder(&buf).Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Req.Repair.Value.(store.Bytes), payload) {
		t.Fatal("round trip mismatch")
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	hdr := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0}
	if _, err := NewBinaryDecoder(bytes.NewReader(hdr)).Decode(); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("err = %v, want frame-size error", err)
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	in := &Envelope{Seq: 42, Req: sampleRequest()}
	if out, _ := frameRoundTrip(t, in, true); !reflect.DeepEqual(in, out) {
		t.Fatalf("mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestRequestCloneIsDeep(t *testing.T) {
	in := sampleRequest()
	c := in.Clone()
	if !reflect.DeepEqual(in, c) {
		t.Fatal("clone differs from original")
	}
	c.Read.Validate[0].Version = 999
	c.Read.StatsFor[0] = "mutated"
	if in.Read.Validate[0].Version == 999 || in.Read.StatsFor[0] == "mutated" {
		t.Fatal("clone shares backing arrays with original")
	}
}

func TestResponseCloneIsDeep(t *testing.T) {
	in := &Response{
		Status: StatusOK,
		Read: &ReadResponse{
			Value:   store.Bytes{1, 2, 3},
			Version: 2,
			Stats:   map[store.ObjectID]float64{"a": 1},
		},
		Prepare: &PrepareResponse{Vote: true, Busy: []store.ObjectID{"b"}},
	}
	c := in.Clone()
	if !reflect.DeepEqual(in, c) {
		t.Fatal("clone differs from original")
	}
	c.Read.Value.(store.Bytes)[0] = 9
	c.Read.Stats["a"] = 7
	c.Prepare.Busy[0] = "z"
	if in.Read.Value.(store.Bytes)[0] == 9 || in.Read.Stats["a"] == 7 || in.Prepare.Busy[0] == "z" {
		t.Fatal("clone shares state with original")
	}
}

func TestCloneNil(t *testing.T) {
	var req *Request
	var resp *Response
	if req.Clone() != nil || resp.Clone() != nil {
		t.Fatal("nil clones should be nil")
	}
}

func TestDecisionAndPrepareRoundTrip(t *testing.T) {
	in := &Envelope{Req: &Request{
		Kind: KindDecision,
		TxID: "tx-9",
		Decision: &DecisionRequest{
			Commit: true,
			Writes: []store.WriteDesc{{ID: "a", Value: store.Int64(1), NewVersion: 4}},
		},
	}}
	if out := marshalRoundTrip(t, in); !reflect.DeepEqual(in, out) {
		t.Fatalf("mismatch: %+v vs %+v", in.Req, out.Req)
	}
}

func TestStatusAndKindStrings(t *testing.T) {
	if StatusOK.String() != "ok" || StatusBusy.String() != "busy" ||
		StatusNotFound.String() != "not-found" || StatusError.String() != "error" {
		t.Fatal("Status.String mismatch")
	}
	if KindRead.String() != "read" || KindPrepare.String() != "prepare" ||
		KindDecision.String() != "decision" || KindStats.String() != "stats" || KindPing.String() != "ping" {
		t.Fatal("Kind.String mismatch")
	}
}

// Property: frames round-trip for arbitrary payloads under both compression
// settings.
func TestFrameRoundTripProperty(t *testing.T) {
	err := quick.Check(func(payload []byte, compress bool) bool {
		var buf bytes.Buffer
		if err := NewBinaryEncoder(&buf, compress).Encode(bytesEnv(payload)); err != nil {
			return false
		}
		got, err := NewBinaryDecoder(&buf).Decode()
		if err != nil {
			return false
		}
		return bytes.Equal(got.Req.Repair.Value.(store.Bytes), payload)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}
