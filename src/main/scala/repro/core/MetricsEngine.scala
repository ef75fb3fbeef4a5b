package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.{col, count, lit, when}

import repro.graph.ConnectedComponents

/** Spark-side confusion-matrix computation between an experiment clustering
  * and a ground-truth clustering (Frost, Sections 3.2.1 and 5.3: "nearly all
  * calculations ... are performed using transitively closed clusters instead
  * of pairs").
  */
object MetricsEngine {

  /** Confusion matrix from two clusterings over the same `n` records: both
    * clusterings' (id, cluster) rows are collected in one Spark job (at most
    * 2n rows, a union of two projections), joined by ID on the driver, and
    * counted by [[ConfusionMatrix.fromClusterings]], the one contingency
    * table of two clusterings. Rows with a null ID join nothing.
    *
    * @throws IllegalArgumentException if the clusterings do not join on
    *         exactly `n` records, naming both counts, or if either side has
    *         an ID twice or a null cluster, naming the ID and the side
    */
  def confusionMatrix(exp: DataFrame, gold: DataFrame, n: Long): ConfusionMatrix = {
    def rows(c: DataFrame, side: Int) = c.select(lit(side), col("id").cast("long"), col("cluster").cast("long"))
    val collected = rows(exp, 0).union(rows(gold, 1)).collect()
    def side(k: Int) = collected.filter(r => r.getInt(0) == k && !r.isNullAt(1))
    val (eIds, eClusters) = byId("experiment", side(0))
    val (gIds, gClusters) = byId("gold", side(1))
    // Merge the two ID orders: each joined record's cluster on both sides.
    val joinedE = new Array[Long](math.min(eIds.length, gIds.length))
    val joinedG = new Array[Long](joinedE.length)
    var joined = 0
    var i = 0; var j = 0
    while (i < eIds.length && j < gIds.length) {
      if (eIds(i) < gIds(j)) i += 1
      else if (eIds(i) > gIds(j)) j += 1
      else { joinedE(joined) = eClusters(i); joinedG(joined) = gClusters(j); joined += 1; i += 1; j += 1 }
    }
    require(joined == n, s"the clusterings join on $joined records, but n is $n")
    ConfusionMatrix.fromClusterings(dense(joinedE, joined), dense(joinedG, joined))
  }

  /** The IDs of one side's (side, id, cluster) rows, ascending, and their
    * clusters in the same order.
    */
  private def byId(side: String, rows: Array[Row]): (Array[Long], Array[Long]) = {
    val ids = ConnectedComponents.sortedUnique(rows.map(_.getLong(1)))(id => s"record $id appears twice in the $side clustering")
    val clusters = new Array[Long](ids.length)
    rows.foreach { r =>
      require(!r.isNullAt(2), s"record ${r.getLong(1)} has a null cluster in the $side clustering")
      clusters(java.util.Arrays.binarySearch(ids, r.getLong(1))) = r.getLong(2)
    }
    (ids, clusters)
  }

  /** The first `n` cluster IDs relabelled to `0 until` their distinct count. */
  private def dense(clusters: Array[Long], n: Int): Array[Int] = {
    val sorted = ConnectedComponents.sortedDistinct(java.util.Arrays.copyOf(clusters, n))
    Array.tabulate(n)(k => java.util.Arrays.binarySearch(sorted, clusters(k)))
  }

  /** Confusion matrix from explicit pair sets (columns a, b) — used for
    * intermediate pipeline stages where results are not transitively closed
    * (e.g. the candidate generation phase, Section 3.2.1).
    *
    * One aggregation over the Venn regions of the two pair sets (Section
    * 4.1): region 3 is E∩G (TP), 1 is E∖G (FP) and 2 is G∖E (FN).
    */
  def confusionMatrixFromPairs(expPairs: DataFrame, goldPairs: DataFrame, n: Long): ConfusionMatrix = {
    val counts = SetComparison.vennRegions(Seq(expPairs, goldPairs))
      .select(Seq(3, 1, 2).map(r => count(when(col("region") === r, true))): _*).collect()(0)
    val tp = counts.getLong(0)
    val fp = counts.getLong(1)
    val fn = counts.getLong(2)
    ConfusionMatrix(tp, fp, fn, ConfusionMatrix.pairsOf(n) - tp - fp - fn)
  }

  /** All named pair metrics for a matrix, as (metric, value) rows. */
  def metricsTable(m: ConfusionMatrix): Seq[(String, Double)] =
    PairMetrics.byName.toSeq.sortBy(_._1).map { case (name, f) => (name, f(m)) }
}
