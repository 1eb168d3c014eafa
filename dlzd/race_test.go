//go:build race

package dlzd

const raceEnabled = true
