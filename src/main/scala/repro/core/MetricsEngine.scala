package repro.core

import scala.collection.mutable

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, count, when}

/** Spark-side confusion-matrix computation between an experiment clustering
  * and a ground-truth clustering (Frost, Sections 3.2.1 and 5.3: "nearly all
  * calculations ... are performed using transitively closed clusters instead
  * of pairs").
  *
  * TP is the intra-cluster pair count of the intersection clustering;
  * FP/FN/TN follow from the experiment/gold pair counts and C(|D|, 2).
  * All three counts come from the intersection's group sizes, the identity
  * Appendix D maintains incrementally.
  */
object MetricsEngine {

  /** Confusion matrix from two clusterings over the same `n` records, from
    * one aggregation: the sizes c of the (experiment, gold) cluster groups
    * of the intersection, collected to the driver (at most `n` of them).
    * TP is Σ C(c, 2); the experiment pairs are Σ over experiment clusters
    * of C(Σ c, 2), and the gold pairs the same over gold clusters.
    *
    * @throws IllegalArgumentException if the clusterings do not join on
    *         exactly `n` records, naming both counts
    */
  def confusionMatrix(exp: DataFrame, gold: DataFrame, n: Long): ConfusionMatrix = {
    val groups = ClusteringOps.intersection(exp, gold)
      .groupBy(col("ecluster"), col("gcluster")).count().collect()
    val expSizes = mutable.HashMap.empty[Any, Long].withDefaultValue(0L)
    val goldSizes = mutable.HashMap.empty[Any, Long].withDefaultValue(0L)
    var joined = 0L
    var tp = 0L
    groups.foreach { r =>
      val c = r.getLong(2)
      joined += c
      tp += ConfusionMatrix.pairsOf(c)
      expSizes(r.get(0)) += c
      goldSizes(r.get(1)) += c
    }
    require(joined == n, s"the clusterings join on $joined records, but n is $n")
    val ep = expSizes.valuesIterator.map(ConfusionMatrix.pairsOf).sum
    val gp = goldSizes.valuesIterator.map(ConfusionMatrix.pairsOf).sum
    val total = ConfusionMatrix.pairsOf(n)
    ConfusionMatrix(tp, ep - tp, gp - tp, total - ep - gp + tp)
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
    val tp = Rows.long(counts, 0)
    val fp = Rows.long(counts, 1)
    val fn = Rows.long(counts, 2)
    ConfusionMatrix(tp, fp, fn, ConfusionMatrix.pairsOf(n) - tp - fp - fn)
  }

  /** All named pair metrics for a matrix, as (metric, value) rows. */
  def metricsTable(m: ConfusionMatrix): Seq[(String, Double)] =
    PairMetrics.byName.toSeq.sortBy(_._1).map { case (name, f) => (name, f(m)) }
}
