package main

import "testing"

func TestInputDigestFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := inputDigest(w, 1), inputDigest(w, 1), inputDigest(w, 2)
		if a != b {
			t.Errorf("%s: seed 1 gave digests %s and %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", w.name, a)
		}
	}
}
