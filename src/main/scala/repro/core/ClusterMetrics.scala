package repro.core

import java.util.Arrays

/** Cluster-based quality metrics (Frost, Section 3.2.2). These compare the
  * experiment clustering and the ground-truth clustering directly, making
  * them immune to the true-negative class imbalance of pair-based metrics.
  *
  * Clusterings are given as cluster-ID-per-record arrays over the same
  * record indexing. Every metric reads their [[Contingency]] table.
  */
object ClusterMetrics {

  /** Closest-cluster precision: mean over experiment clusters of the best
    * Jaccard similarity to any ground-truth cluster (Benjelloun et al. /
    * Menestrina et al.).
    */
  def closestClusterPrecision(exp: Array[Int], gold: Array[Int]): Double = {
    ConfusionMatrix.requireSameRecords(exp, gold)
    meanBestJaccard(exp, gold)
  }

  /** Closest-cluster recall: mean over ground-truth clusters of the best
    * Jaccard similarity to any experiment cluster.
    */
  def closestClusterRecall(exp: Array[Int], gold: Array[Int]): Double = {
    ConfusionMatrix.requireSameRecords(exp, gold)
    meanBestJaccard(gold, exp)
  }

  /** Closest-cluster f1 (harmonic mean of the above). */
  def closestClusterF1(exp: Array[Int], gold: Array[Int]): Double = {
    val p = closestClusterPrecision(exp, gold)
    val r = closestClusterRecall(exp, gold)
    if (p + r == 0) 0.0 else 2 * p * r / (p + r)
  }

  /** Mean over the clusters of `from` of the best Jaccard similarity to a
    * cluster of `to`. Only clusters that share a record, a cell of the
    * table, have Jaccard > 0: s / (|f| + |t| - s) for a cell of size s.
    */
  private def meanBestJaccard(from: Array[Int], to: Array[Int]): Double = {
    val table = Contingency(from, to)
    // `to` against itself has one cell per cluster of `to`, in ascending ID order.
    val toClusters = Contingency(to, to)
    val best = table.rowSize.indices.map { r =>
      (table.rowStart(r) until table.rowStart(r + 1)).map { c =>
        val s = table.cellSize(c)
        val t = toClusters.rowSize(Arrays.binarySearch(toClusters.cellCol, table.cellCol(c)))
        s.toDouble / (table.rowSize(r).toLong + t - s)
      }.max
    }
    if (best.isEmpty) 0.0 else best.sum / best.length
  }

  /** Variation of information (Meilă 2003): H(exp|gold) + H(gold|exp).
    * 0 iff the clusterings are identical; uses natural log.
    */
  def variationOfInformation(exp: Array[Int], gold: Array[Int]): Double = {
    ConfusionMatrix.requireSameRecords(exp, gold)
    val n = exp.length.toDouble
    if (n == 0) return 0.0
    def h(sizes: Array[Int]): Double = -sizes.iterator.map(_ / n).map(p => p * math.log(p)).sum
    val table = Contingency(exp, gold)
    // VI = 2*H(joint) - H(E) - H(G); the gold sizes are the swapped table's rows.
    2 * h(table.cellSize) - h(table.rowSize) - h(Contingency(gold, exp).rowSize)
  }

  /** Generalized merge distance (Menestrina, Whang, Garcia-Molina 2010) with
    * configurable merge/split costs `fm`/`fs`, each a function of the two
    * part sizes involved. With fm = fs = (_, _) => 1 this is the minimum
    * number of cluster merge/split operations to turn `exp` into `gold`.
    *
    * Each experiment cluster splits off its gold-pure parts in ascending
    * size, `fs(part, rest)`, keeping the largest; each gold cluster then
    * merges its parts in ascending size, `fm(merged so far, part)`. The
    * costs are summed in ascending order. Both orders depend on sizes only,
    * so relabelling either clustering leaves the distance as it is, bit for
    * bit.
    */
  def generalizedMergeDistance(
      exp: Array[Int],
      gold: Array[Int],
      fm: (Long, Long) => Double = (_, _) => 1.0,
      fs: (Long, Long) => Double = (_, _) => 1.0,
  ): Double = {
    ConfusionMatrix.requireSameRecords(exp, gold)
    // Slice algorithm: split every experiment cluster into its gold-pure
    // parts (split costs), then build each gold cluster by merging its parts
    // (merge costs). This ordering is cost-minimal for monotone cost models.
    // A cluster's parts are its row's cells: (exp, gold) rows split, (gold, exp) rows merge.
    val costs = Array.newBuilder[Double]
    def sortedParts(table: Contingency): Iterator[Array[Int]] = table.rowSize.indices.iterator.map { r =>
      val parts = Arrays.copyOfRange(table.cellSize, table.rowStart(r), table.rowStart(r + 1))
      Arrays.sort(parts)
      parts
    }
    for (parts <- sortedParts(Contingency(exp, gold))) {
      var remaining = parts.sum.toLong
      parts.init.foreach { part => costs += fs(part, remaining - part); remaining -= part }
    }
    for (parts <- sortedParts(Contingency(gold, exp))) {
      var merged = parts(0).toLong
      parts.tail.foreach { part => costs += fm(merged, part); merged += part }
    }
    costs.result().sorted(Ordering.Double.TotalOrdering).sum
  }
}
