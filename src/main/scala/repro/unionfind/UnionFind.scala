package repro.unionfind

import scala.collection.mutable

/** A merge event reported by [[UnionFind.trackedUnion]].
  *
  * `target` is the representative (cluster ID) of the merged cluster after
  * the batch; `sources` are the representatives of all pre-batch clusters
  * that ended up inside `target` (including the pre-batch cluster that
  * happens to share `target`'s representative). Matches the semantics of
  * the paper's `trackedUnion` (Frost, Appendix D.1).
  */
final case class Merge(target: Int, sources: Vector[Int])

/** Union-find over `0 until n` with union-by-size, path compression, and
  * live intra-cluster pair counting.
  *
  * `pairCount` is the number of unordered record pairs that share a cluster
  * (i.e. the size of the transitively closed match set the structure
  * represents). It is maintained incrementally: merging clusters of sizes
  * a and b adds a*b pairs.
  */
final class UnionFind(val n: Int) {
  require(n >= 0, s"n must be non-negative, got $n")

  private val parent = Array.tabulate(n)(identity)
  private val sz     = Array.fill(n)(1)
  private var pairs  = 0L
  private var comps  = n

  /** Representative of `x`'s cluster (with path compression). */
  def find(x: Int): Int = {
    var root = x
    while (parent(root) != root) root = parent(root)
    var cur = x
    while (parent(cur) != root) { val next = parent(cur); parent(cur) = root; cur = next }
    root
  }

  /** Number of records in `x`'s cluster. */
  def size(x: Int): Int = sz(find(x))

  /** Total number of intra-cluster (matched) pairs. */
  def pairCount: Long = pairs

  /** Number of clusters. */
  def componentCount: Int = comps

  def sameCluster(a: Int, b: Int): Boolean = find(a) == find(b)

  /** Merge the clusters of `a` and `b`; returns the surviving representative,
    * or -1 if they already shared a cluster.
    */
  def union(a: Int, b: Int): Int = {
    val ra = find(a); val rb = find(b)
    if (ra == rb) -1
    else {
      val (big, small) = if (sz(ra) >= sz(rb)) (ra, rb) else (rb, ra)
      parent(small) = big
      pairs += sz(big).toLong * sz(small).toLong
      sz(big) += sz(small)
      comps -= 1
      big
    }
  }

  /** Batched union over `batch` reporting which pre-batch clusters merged.
    *
    * Per the paper: one [[Merge]] entry per surviving (post-batch) cluster
    * that absorbed at least one other pre-batch cluster, listing every
    * pre-batch representative now contained in it.
    */
  def trackedUnion(batch: IterableOnce[(Int, Int)]): Vector[Merge] = {
    val acc = mutable.LongMap.empty[mutable.ArrayBuffer[Int]]
    val it  = batch.iterator
    while (it.hasNext) {
      val (a, b) = it.next()
      trackedStep(acc, a, b)
    }
    merges(acc)
  }

  /** [[trackedUnion]] over the pairs `(a(k), b(k))` for `k` in
    * `[from, until)`, without boxing them into tuples.
    */
  private[repro] def trackedUnion(a: Array[Int], b: Array[Int], from: Int, until: Int): Vector[Merge] = {
    val acc = mutable.LongMap.empty[mutable.ArrayBuffer[Int]]
    var k = from
    while (k < until) { trackedStep(acc, a(k), b(k)); k += 1 }
    merges(acc)
  }

  /** Unions `a` and `b`, recording in `acc` (post-root -> pre-batch roots
    * merged into it) which pre-batch clusters the surviving root absorbed.
    */
  private def trackedStep(acc: mutable.LongMap[mutable.ArrayBuffer[Int]], a: Int, b: Int): Unit = {
    val ra = find(a); val rb = find(b)
    if (ra != rb) {
      var srcA = acc.getOrNull(ra.toLong)
      if (srcA == null) srcA = mutable.ArrayBuffer(ra) else acc -= ra.toLong
      val srcB = acc.getOrNull(rb.toLong)
      if (srcB == null) srcA += rb else { acc -= rb.toLong; srcA ++= srcB }
      acc(union(ra, rb).toLong) = srcA
    }
  }

  private def merges(acc: mutable.LongMap[mutable.ArrayBuffer[Int]]): Vector[Merge] =
    acc.iterator.map { case (tgt, srcs) => Merge(tgt.toInt, srcs.toVector) }.toVector

  /** Cluster assignment snapshot: record index -> representative. */
  def toClustering: Array[Int] = Array.tabulate(n)(find)
}
