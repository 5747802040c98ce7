// Paytv: the paper's alternative scenario (§I) — pay-per-view broadcasting.
// A broadcaster encrypts stream segments under the group key; subscribers
// churn rapidly (subscribe, unsubscribe, lapse), and every revocation
// rotates the key so lapsed subscribers cannot decrypt new segments. The
// example demonstrates the partitioning mechanism under churn: decryption
// cost stays bounded by the partition size no matter how large the audience
// grows, and the client Watch API delivers rotations live.
package main

import (
	"context"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	ibbesgx "github.com/ibbesgx/ibbesgx"
)

const channel = "boxing-night"

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	sys, err := ibbesgx.NewSystem(ibbesgx.Options{Params: "fast-160", PartitionCapacity: 16})
	if err != nil {
		return err
	}
	store := ibbesgx.NewMemStore()
	admin, err := sys.NewAdmin("broadcaster", store)
	if err != nil {
		return err
	}

	// 100 initial subscribers across ⌈100/16⌉ = 7 partitions.
	subscribers := make([]string, 100)
	for i := range subscribers {
		subscribers[i] = fmt.Sprintf("subscriber-%03d@tv.example", i)
	}
	if err := admin.CreateGroup(ctx, channel, subscribers); err != nil {
		return err
	}
	fmt.Printf("✓ channel %q: %d subscribers\n", channel, len(subscribers))

	// One subscriber watches the channel: every key rotation arrives
	// through the long-polling Watch API.
	viewerCreds, err := sys.ProvisionUser(subscribers[7])
	if err != nil {
		return err
	}
	viewer, err := sys.NewClient(viewerCreds, store, channel)
	if err != nil {
		return err
	}
	var (
		mu       sync.Mutex
		viewKeys []ibbesgx.GroupKey
	)
	watchDone := make(chan error, 1)
	go func() {
		watchDone <- viewer.Watch(ctx, func(gk ibbesgx.GroupKey) {
			mu.Lock()
			viewKeys = append(viewKeys, gk)
			mu.Unlock()
		})
	}()
	waitForKeys(&mu, &viewKeys, func(keys []ibbesgx.GroupKey) bool { return len(keys) > 0 })

	// Broadcast a segment under the current key.
	mu.Lock()
	key1 := viewKeys[0]
	mu.Unlock()
	seg1, err := encryptSegment(key1, []byte("segment-001: round one"))
	if err != nil {
		return err
	}
	fmt.Printf("✓ broadcast segment 1 (%d bytes, AES-GCM under the group key)\n", len(seg1))

	// Churn: five lapsed subscriptions, three new ones. Each revocation
	// rotates the key; adds do not (joiners may watch the running segment,
	// exactly the paper's add semantics).
	for i := 0; i < 5; i++ {
		if err := admin.RemoveUser(ctx, channel, subscribers[i]); err != nil {
			return err
		}
	}
	for i := 0; i < 3; i++ {
		if err := admin.AddUser(ctx, channel, fmt.Sprintf("late-joiner-%d@tv.example", i)); err != nil {
			return err
		}
	}
	fmt.Println("✓ churn applied: 5 lapses (key rotations), 3 new subscriptions")

	// Segment 2 goes out under the key the cloud holds now. The watcher may
	// still be delivering the churn's rotations, so wait until the last key
	// it received is that key, and take it once.
	fresh, err := sys.NewClient(viewerCreds, store, channel)
	if err != nil {
		return err
	}
	key2, err := fresh.GroupKey(ctx)
	if err != nil {
		return err
	}
	waitForKeys(&mu, &viewKeys, func(keys []ibbesgx.GroupKey) bool { return keys[len(keys)-1] == key2 })
	mu.Lock()
	rotations := len(viewKeys) - 1
	mu.Unlock()
	fmt.Printf("✓ viewer observed %d key rotation(s) via long polling\n", rotations)

	// A lapsed subscriber still holds the key of segment 1 (she paid for
	// it) but cannot decrypt segment 2.
	seg2, err := encryptSegment(key2, []byte("segment-002: round two"))
	if err != nil {
		return err
	}
	lapsedCreds, err := sys.ProvisionUser(subscribers[0])
	if err != nil {
		return err
	}
	lapsed, err := sys.NewClient(lapsedCreds, store, channel)
	if err != nil {
		return err
	}
	if _, err := lapsed.GroupKey(ctx); !errors.Is(err, ibbesgx.ErrEvicted) {
		return fmt.Errorf("lapsed subscriber not evicted: %v", err)
	}
	if _, err := decryptSegment(key1, seg2); err == nil {
		return errors.New("the key of segment 1 opens segment 2")
	}
	fmt.Println("✓ lapsed subscriber cannot derive the key for new segments")

	// The viewer decrypts both segments with the keys received on watch.
	if _, err := decryptSegment(key1, seg1); err != nil {
		return fmt.Errorf("viewer cannot decrypt segment 1: %w", err)
	}
	if _, err := decryptSegment(key2, seg2); err != nil {
		return fmt.Errorf("viewer cannot decrypt segment 2: %w", err)
	}
	fmt.Println("✓ active viewer decrypts all segments")

	cancel()
	<-watchDone
	return nil
}

// waitForKeys blocks until the keys the watcher received satisfy done.
func waitForKeys(mu *sync.Mutex, keys *[]ibbesgx.GroupKey, done func([]ibbesgx.GroupKey) bool) {
	for {
		mu.Lock()
		ok := done(*keys)
		mu.Unlock()
		if ok {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func encryptSegment(gk ibbesgx.GroupKey, payload []byte) ([]byte, error) {
	block, err := aes.NewCipher(gk[:])
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, aead.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	return aead.Seal(nonce, nonce, payload, []byte(channel)), nil
}

func decryptSegment(gk ibbesgx.GroupKey, box []byte) ([]byte, error) {
	block, err := aes.NewCipher(gk[:])
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	if len(box) < aead.NonceSize() {
		return nil, errors.New("segment too short")
	}
	return aead.Open(nil, box[:aead.NonceSize()], box[aead.NonceSize():], []byte(channel))
}
