package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"qracn/internal/quorum"
	"qracn/internal/wire"
)

func TestClassify(t *testing.T) {
	pre := &Error{Kind: ErrKindDial, Node: 3, Err: ErrNodeDown}
	cases := []struct {
		name     string
		kind     ErrKind
		err      error
		wantKind ErrKind
		wantWrap bool // expect a *transport.Error wrapper
	}{
		{"nil", ErrKindUnknown, nil, 0, false},
		{"already classified", ErrKindTimeout, pre, ErrKindDial, true},
		{"cancel passes through", ErrKindUnknown, context.Canceled, 0, false},
		{"deadline becomes timeout", ErrKindUnknown, context.DeadlineExceeded, ErrKindTimeout, true},
		{"node down becomes conn-lost", ErrKindUnknown, ErrNodeDown, ErrKindConnLost, true},
		{"explicit kind kept", ErrKindDial, ErrNodeDown, ErrKindDial, true},
	}
	for _, tc := range cases {
		got := classify(7, tc.kind, tc.err)
		if tc.err == nil {
			if got != nil {
				t.Errorf("%s: classify(nil) = %v", tc.name, got)
			}
			continue
		}
		var te *Error
		if errors.As(got, &te) != tc.wantWrap {
			t.Errorf("%s: wrapped = %v, want %v (err: %v)", tc.name, !tc.wantWrap, tc.wantWrap, got)
			continue
		}
		if tc.wantWrap && te.Kind != tc.wantKind {
			t.Errorf("%s: kind = %v, want %v", tc.name, te.Kind, tc.wantKind)
		}
		// The original error must survive the wrapping for errors.Is.
		if tc.err != nil && !errors.Is(got, unwrapTarget(tc.err)) {
			t.Errorf("%s: errors.Is lost the cause", tc.name)
		}
	}
}

func unwrapTarget(err error) error {
	var te *Error
	if errors.As(err, &te) {
		return te.Err
	}
	return err
}

func TestStreamFailKind(t *testing.T) {
	cases := []struct {
		err  error
		want ErrKind
	}{
		{nil, ErrKindConnLost},
		{io.EOF, ErrKindConnLost},
		{io.ErrUnexpectedEOF, ErrKindConnLost},
		{context.DeadlineExceeded, ErrKindConnLost},
		{fmt.Errorf("%w: crc mismatch", wire.ErrBadFrame), ErrKindDecode},
	}
	for _, tc := range cases {
		if got := streamFailKind(tc.err); got != tc.want {
			t.Errorf("streamFailKind(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestTCPDialErrorClassified(t *testing.T) {
	// Point a client at a port nothing listens on.
	client := NewTCPClient(map[quorum.NodeID]string{0: "127.0.0.1:1"}, false)
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := client.Call(ctx, 0, &wire.Request{Kind: wire.KindPing})
	var te *Error
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *transport.Error", err)
	}
	if te.Kind != ErrKindDial || te.Node != 0 {
		t.Fatalf("err = %+v, want dial-classified for node 0", te)
	}
	if !errors.Is(err, ErrNodeDown) {
		t.Fatal("dial failure no longer matches ErrNodeDown")
	}
}

func TestChannelFaultInjection(t *testing.T) {
	net := NewChannelNetwork(ChannelConfig{})
	defer net.Close()
	net.Register(0, func(ctx context.Context, req *wire.Request) *wire.Response {
		return &wire.Response{Status: wire.StatusOK}
	})

	// Err fault: immediate classified failure, invisible to the oracle.
	boom := &Error{Kind: ErrKindDial, Node: 0, Err: ErrNodeDown}
	net.SetFault(func(to quorum.NodeID, req *wire.Request) Fault {
		return Fault{Err: boom}
	})
	if !net.Alive(0) {
		t.Fatal("fault injection must not affect the Alive oracle")
	}
	if _, err := net.Call(context.Background(), 0, &wire.Request{Kind: wire.KindPing}); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v, want injected ErrNodeDown", err)
	}

	// Drop fault: the call blocks until the context deadline and comes back
	// timeout-classified.
	net.SetFault(func(to quorum.NodeID, req *wire.Request) Fault {
		return Fault{Drop: true}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := net.Call(ctx, 0, &wire.Request{Kind: wire.KindPing})
	var te *Error
	if !errors.As(err, &te) || te.Kind != ErrKindTimeout {
		t.Fatalf("dropped call err = %v, want timeout-classified", err)
	}

	// Removing the hook restores normal delivery.
	net.SetFault(nil)
	resp, err := net.Call(context.Background(), 0, &wire.Request{Kind: wire.KindPing})
	if err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("after clearing fault: %v, %v", resp, err)
	}
}

func TestChaosClientCutAndHeal(t *testing.T) {
	net := NewChannelNetwork(ChannelConfig{})
	defer net.Close()
	net.Register(2, func(ctx context.Context, req *wire.Request) *wire.Response {
		return &wire.Response{Status: wire.StatusOK}
	})
	chaos := NewChaosClient(net, 1)

	chaos.Cut(2, true)
	_, err := chaos.Call(context.Background(), 2, &wire.Request{Kind: wire.KindPing})
	var te *Error
	if !errors.As(err, &te) || te.Kind != ErrKindDial {
		t.Fatalf("cut call err = %v, want dial-classified", err)
	}

	chaos.Cut(2, false)
	resp, err := chaos.Call(context.Background(), 2, &wire.Request{Kind: wire.KindPing})
	if err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("healed call: %v, %v", resp, err)
	}
}

func TestChaosClientDrop(t *testing.T) {
	net := NewChannelNetwork(ChannelConfig{})
	defer net.Close()
	net.Register(0, func(ctx context.Context, req *wire.Request) *wire.Response {
		return &wire.Response{Status: wire.StatusOK}
	})
	chaos := NewChaosClient(net, 42)
	chaos.SetDropRate(0, 1.0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := chaos.Call(ctx, 0, &wire.Request{Kind: wire.KindPing})
	var te *Error
	if !errors.As(err, &te) || te.Kind != ErrKindTimeout {
		t.Fatalf("dropped call err = %v, want timeout-classified", err)
	}
}
