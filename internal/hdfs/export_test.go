package hdfs

// Create with the file system default block size, for tests.

// Create places a file of sizeMB across the cluster using the HDFS
// default placement policy: first replica on a round-robin "writer"
// node, second on a different rack, third on the second's rack.
func (fs *FileSystem) Create(name string, sizeMB float64) *File {
	return fs.CreateWithBlockSize(name, sizeMB, fs.BlockSizeMB)
}
