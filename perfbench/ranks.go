package main

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mpi"
)

// rankGroup is a set of ranks in this process, each with its own TCP
// transport over loopback, bootstrapped through mpi.ListenTCP/DialTCP
// exactly as separate processes would be.
type rankGroup struct {
	comms  []*mpi.Comm
	meters []*meteredTransport // one per rank when metered, else nil
}

// connectRanks bootstraps size TCP ranks. With metered set, every
// transport is wrapped in a meteredTransport before mpi.NewComm sees it.
func connectRanks(ctx context.Context, size int, metered bool) (*rankGroup, error) {
	rz, err := mpi.ListenTCP("127.0.0.1:0", size)
	if err != nil {
		return nil, err
	}
	ts := make([]mpi.Transport, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for rank := 1; rank < size; rank++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ts[rank], errs[rank] = mpi.DialTCP(ctx, rz.Addr(), rank, size)
		}()
	}
	ts[0], errs[0] = rz.Accept(ctx) // on success the transport owns the listener
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, t := range ts {
			if t != nil {
				t.Close()
			}
		}
		if ts[0] == nil {
			rz.Close()
		}
		return nil, err
	}
	g := &rankGroup{}
	for _, t := range ts {
		if metered {
			m := &meteredTransport{Transport: t}
			g.meters = append(g.meters, m)
			t = m
		}
		g.comms = append(g.comms, mpi.NewComm(t))
	}
	return g, nil
}

// close shuts every rank's transport down. A nil group is a no-op.
func (g *rankGroup) close() {
	if g == nil {
		return
	}
	for _, c := range g.comms {
		c.Transport().Close()
	}
}

// meteredTransport counts the traffic of one rank and the time its
// point-to-point calls take. Recv time is time blocked waiting for the
// peer's message.
type meteredTransport struct {
	mpi.Transport
	messages, bytes atomic.Int64
	sendNs, recvNs  atomic.Int64
}

func (t *meteredTransport) Send(dst, tag int, data []float64, deadline time.Time) error {
	t0 := time.Now()
	err := t.Transport.Send(dst, tag, data, deadline)
	t.sendNs.Add(int64(time.Since(t0)))
	t.messages.Add(1)
	t.bytes.Add(8 * int64(len(data)))
	return err
}

func (t *meteredTransport) Recv(src, tag int, deadline time.Time) ([]float64, error) {
	t0 := time.Now()
	data, err := t.Transport.Recv(src, tag, deadline)
	t.recvNs.Add(int64(time.Since(t0)))
	return data, err
}

// meterReading is a snapshot of a meteredTransport's counters.
type meterReading struct {
	messages, bytes float64
	send, recv      float64 // seconds
}

func (t *meteredTransport) read() meterReading {
	return meterReading{
		messages: float64(t.messages.Load()),
		bytes:    float64(t.bytes.Load()),
		send:     time.Duration(t.sendNs.Load()).Seconds(),
		recv:     time.Duration(t.recvNs.Load()).Seconds(),
	}
}
