package hdfs

// testBlockMB is the HDFS default block size, which Create uses.
const testBlockMB = 128

// Create places a file of sizeMB across the cluster in testBlockMB
// blocks using the HDFS default placement policy: first replica on a
// round-robin "writer" node, second on a different rack, third on the
// second's rack.
func (fs *FileSystem) Create(name string, sizeMB float64) *File {
	return fs.CreateWithBlockSize(name, sizeMB, testBlockMB)
}
