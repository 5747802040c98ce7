package storage

import (
	"context"
	"sync"
)

// MultiGetter is the optional batched read: a store that implements it
// reads several objects of one directory in ONE round trip. data[i] and
// errs[i] are what Get would have returned for names[i]. MemStore
// implements it; GetMany reads concurrently from stores that do not.
type MultiGetter interface {
	GetMany(ctx context.Context, dir string, names []string) (data [][]byte, errs []error)
}

// GetMany reads names from dir through the store's native MultiGetter when
// it has one (selection is by type assertion alone), and otherwise with one
// concurrent Get per name, the last on the calling goroutine. Either way
// the reads cost one round trip, not one each. data[i] and errs[i] are what
// Get returns for names[i].
func GetMany(ctx context.Context, s Store, dir string, names ...string) (data [][]byte, errs []error) {
	if mg, ok := s.(MultiGetter); ok {
		return mg.GetMany(ctx, dir, names)
	}
	data, errs = make([][]byte, len(names)), make([]error, len(names))
	if len(names) == 0 {
		return data, errs
	}
	var wg sync.WaitGroup
	for i := range names[:len(names)-1] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data[i], errs[i] = s.Get(ctx, dir, names[i])
		}()
	}
	last := len(names) - 1
	data[last], errs[last] = s.Get(ctx, dir, names[last])
	wg.Wait()
	return data, errs
}
