package repro.core

import org.apache.spark.sql.DataFrame

/** Spark-side confusion-matrix computation between an experiment clustering
  * and a ground-truth clustering (Frost, Sections 3.2.1 and 5.3: "nearly all
  * calculations ... are performed using transitively closed clusters instead
  * of pairs").
  *
  * TP is the intra-cluster pair count of the intersection clustering;
  * FP/FN/TN follow from the experiment/gold pair counts and C(|D|, 2).
  */
object MetricsEngine {

  /** Confusion matrix from two clusterings over the same `n` records. */
  def confusionMatrix(exp: DataFrame, gold: DataFrame, n: Long): ConfusionMatrix = {
    val tp = ClusteringOps.intersectionPairCount(exp, gold)
    val ep = ClusteringOps.pairCount(exp)
    val gp = ClusteringOps.pairCount(gold)
    val total = ConfusionMatrix.pairsOf(n)
    ConfusionMatrix(tp, ep - tp, gp - tp, total - ep - gp + tp)
  }

  /** Confusion matrix from explicit pair sets (columns a, b) — used for
    * intermediate pipeline stages where results are not transitively closed
    * (e.g. the candidate generation phase, Section 3.2.1).
    */
  def confusionMatrixFromPairs(expPairs: DataFrame, goldPairs: DataFrame, n: Long): ConfusionMatrix = {
    val e = ClusteringOps.canonicalPairs(expPairs).cache()
    val g = ClusteringOps.canonicalPairs(goldPairs).cache()
    val tp = e.join(g, Seq("a", "b")).count()
    val ec = e.count(); val gc = g.count()
    e.unpersist(); g.unpersist()
    val total = ConfusionMatrix.pairsOf(n)
    ConfusionMatrix(tp, ec - tp, gc - tp, total - ec - gc + tp)
  }

  /** All named pair metrics for a matrix, as (metric, value) rows. */
  def metricsTable(m: ConfusionMatrix): Seq[(String, Double)] =
    PairMetrics.byName.toSeq.sortBy(_._1).map { case (name, f) => (name, f(m)) }
}
