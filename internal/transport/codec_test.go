package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"qracn/internal/quorum"
	"qracn/internal/store"
	"qracn/internal/wire"
)

// TestTCPEveryCodec drives a full round trip over a real TCP connection with
// each built-in codec, checking the server sniffs the client's preamble and
// the payload survives intact.
func TestTCPEveryCodec(t *testing.T) {
	for _, codec := range []wire.Codec{wire.Binary} {
		t.Run(codec.Name(), func(t *testing.T) {
			cli, stop := startTCPPair(t, func(_ context.Context, req *wire.Request) *wire.Response {
				return &wire.Response{
					Status: wire.StatusOK,
					Detail: req.TxID,
					Read:   &wire.ReadResponse{Value: store.Int64(42), Version: 7},
				}
			})
			defer stop()
			resp, err := cli.Call(context.Background(), 0, &wire.Request{
				Kind: wire.KindRead, TxID: "codec-" + codec.Name(),
				Read: &wire.ReadRequest{Object: store.ID("acct", 1)},
			})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Detail != "codec-"+codec.Name() || resp.Read.Value != store.Int64(42) {
				t.Fatalf("response mutated: %+v", resp)
			}
		})
	}
}

// syncBuffer is a bytes.Buffer safe to write from the server's goroutines
// while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTCPRefusesGobEraPeer: a gob-era client sends no preamble, so its first
// bytes are a gob frame (testdata/gob-era-ping.bin, a ping written by the
// last release that spoke gob). The server must close such a connection —
// and one that declares the retired gob codec id — before any handler runs,
// log the reason, and keep serving binary clients.
func TestTCPRefusesGobEraPeer(t *testing.T) {
	gobFrame, err := os.ReadFile("testdata/gob-era-ping.bin")
	if err != nil {
		t.Fatal(err)
	}
	var logged syncBuffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	var calls atomic.Int64
	srv := NewTCPServer(func(ctx context.Context, req *wire.Request) *wire.Response {
		calls.Add(1)
		return echoHandler(ctx, req)
	}, false)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, first := range [][]byte{gobFrame, {0xC6, 1}} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(first); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		// Closed with unread input, the socket may answer with a reset.
		if n, err := conn.Read(make([]byte, 1)); err != io.EOF && !errors.Is(err, syscall.ECONNRESET) {
			t.Fatalf("stream %x...: read = (%d, %v), want the server to close the connection", first[:2], n, err)
		}
		conn.Close()
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("%d handler calls on refused connections, want 0", n)
	}
	for _, want := range []string{"not the binary preamble", "retired gob codec"} {
		if !strings.Contains(logged.String(), want) {
			t.Fatalf("log lacks %q:\n%s", want, logged.String())
		}
	}

	cli := NewTCPClient(map[quorum.NodeID]string{0: addr}, false)
	defer cli.Close()
	if resp, err := cli.Call(context.Background(), 0, &wire.Request{Kind: wire.KindPing, TxID: "binary"}); err != nil || resp.Detail != "binary" {
		t.Fatalf("binary client after refusals: resp %+v err %v", resp, err)
	}
}

// TestTCPBinaryCompressedPayload pushes a payload past CompressThreshold
// through the binary codec so the compressed-frame path (flags bit +
// post-compression CRC) is exercised end to end.
func TestTCPBinaryCompressedPayload(t *testing.T) {
	writes := make([]store.WriteDesc, 256)
	for i := range writes {
		writes[i] = store.WriteDesc{
			ID:         store.ID("warehouse/stock", i),
			Value:      store.String("districtdistrictdistrict"),
			NewVersion: uint64(i),
		}
	}
	cli, stop := startTCPPair(t, func(_ context.Context, req *wire.Request) *wire.Response {
		return &wire.Response{Status: wire.StatusOK, Sync: &wire.SyncResponse{Objects: req.Prepare.Writes}}
	})
	defer stop()
	resp, err := cli.Call(context.Background(), 0, &wire.Request{
		Kind: wire.KindPrepare, TxID: "big",
		Prepare: &wire.PrepareRequest{Writes: writes},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Sync.Objects, writes) {
		t.Fatalf("%d writes round-tripped wrong", len(resp.Sync.Objects))
	}
}

// TestChannelCodecMode checks the channel network's serializing mode: with a
// Codec configured, messages cross the boundary via encode/decode instead of
// Clone — mutation isolation still holds and payloads are preserved.
func TestChannelCodecMode(t *testing.T) {
	for _, codec := range []wire.Codec{wire.Binary} {
		t.Run(codec.Name(), func(t *testing.T) {
			var got *wire.Request
			n := NewChannelNetwork(ChannelConfig{Codec: codec})
			n.Register(3, func(_ context.Context, req *wire.Request) *wire.Response {
				got = req
				req.TxID = "mutated-server-side"
				return &wire.Response{Status: wire.StatusOK, Read: &wire.ReadResponse{Value: store.Int64(9), Version: 1}}
			})
			req := &wire.Request{
				Kind: wire.KindRead, TxID: "iso",
				Read: &wire.ReadRequest{Object: store.ID("acct", 5), Validate: []store.ReadDesc{{ID: "x", Version: 2}}},
			}
			resp, err := n.Call(context.Background(), 3, req)
			if err != nil {
				t.Fatal(err)
			}
			if req.TxID != "iso" {
				t.Fatal("server-side mutation leaked back to the caller")
			}
			if got == req || got.Read == req.Read {
				t.Fatal("request crossed the boundary by reference")
			}
			if resp.Read.Value != store.Int64(9) || resp.Read.Version != 1 {
				t.Fatalf("response mutated: %+v", resp.Read)
			}
		})
	}
}

// TestChannelCodecModeConcurrent hammers one destination's pipe from many
// goroutines: the per-pipe lock must serialize encode/decode pairs without
// cross-talk between calls.
func TestChannelCodecModeConcurrent(t *testing.T) {
	n := NewChannelNetwork(ChannelConfig{Codec: wire.Binary})
	n.Register(0, echoHandler)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			txid := fmt.Sprintf("tx-%d", i)
			resp, err := n.Call(context.Background(), 0, &wire.Request{Kind: wire.KindPing, TxID: txid})
			if err != nil {
				errs <- err
				return
			}
			if resp.Detail != txid {
				errs <- fmt.Errorf("call %d got %q", i, resp.Detail)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
