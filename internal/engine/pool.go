package engine

import (
	"context"

	"repro/internal/runner"
	"repro/internal/sim"
)

// Pool adapts a long-lived runner.Pool to the engine seam for the
// mission service. Unlike the stateless runner engine it carries
// admission control — a submission that does not fit the pool's bounded
// queue is rejected whole with runner.ErrQueueFull, and a draining pool
// rejects with runner.ErrDraining — and it streams: Submit releases
// finished indices strictly in submission order, so a consumer folding
// results as they are released sees the runner's bytes.
type Pool struct {
	pool *runner.Pool
}

// NewPool wraps an existing pool. The caller keeps ownership: draining
// and closing remain the caller's job.
func NewPool(p *runner.Pool) *Pool { return &Pool{pool: p} }

// Submit reserves queue slots all-or-nothing and enqueues the jobs,
// returning a Stream that releases finished indices strictly in
// submission order. Errors pass through from runner.Pool.Submit
// (ErrQueueFull, ErrDraining) so callers can shed load.
func (p *Pool) Submit(ctx context.Context, jobs []Job) (*Stream, error) {
	AttachShared(jobs)
	results := make([]sim.Result, len(jobs))
	ticket, err := p.pool.Submit(ctx, len(jobs), func(ctx context.Context, i int) error {
		res, err := sim.RunContext(ctx, jobs[i].Cfg)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Stream{ticket: ticket, results: results}, nil
}

// Stream is the handle to one submitted batch on the pool engine:
// finished indices are released strictly in submission order (Ready
// yields 0, 1, 2, … and is closed after the last), which is what carries
// the engines' byte-identity contract across a streaming consumer at any
// pool shard count.
type Stream struct {
	ticket  *runner.Ticket
	results []sim.Result
}

// Ready yields finished indices in submission order and is closed after
// the last.
func (s *Stream) Ready() <-chan int { return s.ticket.Ready() }

// Err returns the outcome of a released index (nil on success). Only
// valid for indices already received from Ready.
func (s *Stream) Err(i int) error { return s.ticket.Err(i) }

// Result returns the result of a released index. Only valid for indices
// already received from Ready with a nil Err.
func (s *Stream) Result(i int) sim.Result { return s.results[i] }
