package snapshot

import "testing"

// TestStreamSaveRefusesInvalidState pins the save side of Corruptf: state
// that fails a load check could never be loaded back, so saving it panics
// instead of writing a snapshot no resume accepts.
func TestStreamSaveRefusesInvalidState(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Corruptf on a saving stream did not panic")
		}
	}()
	NewEncoder().Stream().Corruptf("pointer %d out of range", 3)
}
