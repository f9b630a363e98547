// crash-recovery: crashes a heap at the worst possible moments and shows
// Poseidon's recovery guarantees (§5.8): committed state survives, the
// interrupted metadata operation is settled by the commit log, and
// adversarial cacheline eviction cannot produce a torn heap.
package main

import (
	"errors"
	"fmt"
	"log"

	"poseidon/internal/core"
	"poseidon/internal/nvm"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func opts() core.Options {
	return core.Options{
		Subheaps:        1,
		SubheapUserSize: 4 << 20,
		SubheapMetaSize: 512 << 10,
		UndoLogSize:     64 << 10,
		HeapID:          0xC0FFEE,
		CrashTracking:   true, // enable the device's crash simulation
	}
}

func run() error {
	h, err := core.Create(opts())
	if err != nil {
		return err
	}
	t, err := h.Thread()
	if err != nil {
		return err
	}

	// Committed work: an allocated block holding durable data.
	keeper, err := t.Alloc(128)
	if err != nil {
		return err
	}
	if err := t.Persist(keeper, 0, []byte("committed before the crash")); err != nil {
		return err
	}
	if err := h.SetRoot(keeper); err != nil {
		return err
	}
	fmt.Printf("committed block %v\n", keeper)

	// Kill the device mid-allocation: after 5 more stores, every further
	// store fails — the machine is "dying" inside the allocator.
	h.Device().FailAfter(5)
	_, err = t.Alloc(256)
	fmt.Printf("allocation during the failure: %v\n", err)
	h.Device().DisarmFailpoint()

	// Power failure with adversarial cacheline eviction: any dirty line
	// may or may not have reached the media.
	if _, err := h.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictRandom, Prob: 0.5, Seed: 99}); err != nil {
		return err
	}
	fmt.Println("power failed (random surviving cachelines); restarting…")

	// Restart: Load replays the commit logs and rolls back uncommitted
	// transactional allocations.
	h2, err := core.Load(h.Device(), opts())
	if err != nil {
		return err
	}
	t2, err := h2.Thread()
	if err != nil {
		return err
	}
	defer t2.Close()
	root, err := h2.Root()
	if err != nil {
		return err
	}
	buf := make([]byte, 26)
	if err := t2.Read(root, 0, buf); err != nil {
		return err
	}
	fmt.Printf("recovered root data: %q\n", buf)

	// Transactional allocation: crash before the commit -> rolled back.
	fmt.Println("\nopening a transaction of 3 allocations, crashing before commit…")
	var txPtrs []core.NVMPtr
	for i := 0; i < 3; i++ {
		p, err := t2.TxAlloc(512, false) // is_end stays false: never committed
		if err != nil {
			return err
		}
		txPtrs = append(txPtrs, p)
	}
	if _, err := h2.Device().Crash(nvm.CrashPolicy{Mode: nvm.EvictNone}); err != nil {
		return err
	}
	h3, err := core.Load(h2.Device(), opts())
	if err != nil {
		return err
	}
	st := h3.Stats()
	fmt.Printf("recovery rolled back %d uncommitted allocations (no persistent leak)\n",
		st.RecoveredBlocks)
	t3, err := h3.Thread()
	if err != nil {
		return err
	}
	defer t3.Close()
	for _, p := range txPtrs {
		if err := t3.Free(p); !errors.Is(err, core.ErrDoubleFree) {
			return fmt.Errorf("block %v should have been rolled back, free said: %v", p, err)
		}
	}
	fmt.Println("all transaction blocks are back on the free lists")

	// And the committed data is still there.
	root3, err := h3.Root()
	if err != nil {
		return err
	}
	if err := t3.Read(root3, 0, buf); err != nil {
		return err
	}
	fmt.Printf("committed data after second crash: %q\n", buf)
	return nil
}
