package bench

import (
	"fmt"
	"testing"
)

// The request handlers build keys without fmt; the keys must be exactly the
// ones fmt would build, padded or not, at the edges of every range the
// handlers draw from and past the padding width.
func TestKeyNameMatchesSprintf(t *testing.T) {
	for _, i := range []int{0, 9, 18999, 19499, 19500, 99999999, 123456789} {
		if got, want := keyName(i, 8), fmt.Sprintf("key-%08d", i); got != want {
			t.Errorf("keyName(%d, 8) = %q, want %q", i, got, want)
		}
		if got, want := keyName(i, 1), fmt.Sprintf("key-%d", i); got != want {
			t.Errorf("keyName(%d, 1) = %q, want %q", i, got, want)
		}
	}
}
