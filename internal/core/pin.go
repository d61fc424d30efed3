package core

import (
	"fmt"

	"repro/internal/index"
)

// pin is the snapshot lifecycle PlaneQuery and NetworkQuery share: the
// store a pinned query reads, the snapshot it pins, and the op-log replay
// that carries the client state across the epochs it skipped. Both fields
// are nil for raw-index queries, which never re-pin.
type pin struct {
	store *index.Store
	snap  *index.Snapshot // released on Close or when re-pinning
}

// pinStore pins the store's current snapshot.
func pinStore(st *index.Store) (pin, error) {
	snap := st.Acquire()
	if snap == nil {
		return pin{}, fmt.Errorf("core: %w", index.ErrClosed)
	}
	return pin{store: st, snap: snap}, nil
}

// repin moves the pin to the newest published snapshot and returns it, or
// nil when there is nothing to move (raw-index query, already current, or
// store closed — the query then keeps serving the snapshot it holds).
//
// When guarded (the query holds client state), invalidate reports whether
// any op in the skipped epoch range satisfies affected, or whether the
// range fell out of the store's log — then nothing can be proved and the
// caller must invalidate conservatively. affected runs before the pin
// moves, so it sees the old snapshot, where every guard object is live.
func (p *pin) repin(guarded bool, affected func(index.Op) bool) (next *index.Snapshot, invalidate bool) {
	if p.store == nil || p.snap == nil || p.store.Current().Epoch() == p.snap.Epoch() {
		return nil, false
	}
	// Pin first, then read the op window up to the pinned epoch, so no
	// mutation can slip between the window and the snapshot.
	next = p.store.Acquire()
	if next == nil {
		return nil, false
	}
	if guarded {
		ops, ok := p.store.OpsSince(p.snap.Epoch(), next.Epoch())
		invalidate = !ok
		for _, op := range ops {
			if affected(op) {
				invalidate = true
				break
			}
		}
	}
	p.snap.Release()
	p.snap = next
	return next, invalidate
}

// Epoch returns the pinned snapshot's epoch (0 for raw-index queries).
func (p *pin) Epoch() uint64 {
	if p.snap == nil {
		return 0
	}
	return p.snap.Epoch()
}

// Close releases the query's snapshot pin. It is idempotent and a no-op
// for raw-index queries; the query must not be used afterwards.
func (p *pin) Close() {
	if p.snap != nil {
		p.snap.Release()
		p.snap = nil
	}
}
