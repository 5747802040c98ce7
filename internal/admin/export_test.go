package admin

import (
	"context"

	"github.com/ibbesgx/ibbesgx/internal/core"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// Hooks for the package's tests. They are in package admin_test because
// they read group keys through internal/client, which imports this
// package's wire types.

const SealedGKObject = sealedGKObject

// TracksVersion reports whether the admin holds a directory version for
// group.
func (a *Admin) TracksVersion(group string) bool {
	a.verMu.Lock()
	defer a.verMu.Unlock()
	_, ok := a.dirVer[group]
	return ok
}

func (a *Admin) UpdateObjects(up *core.Update) (puts, closing []storage.Object, err error) {
	return a.updateObjects(up)
}

func (a *Admin) CommitUpdate(ctx context.Context, up *core.Update, v uint64, maxPayload int) (uint64, error) {
	return a.commitUpdate(ctx, up, v, maxPayload)
}
