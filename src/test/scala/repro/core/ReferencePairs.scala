package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

/** Pair-set views of experiments, the references the cluster-based
  * confusion matrices and pair counts are checked against.
  */
object ReferencePairs {

  /** Confusion matrix from explicit pair sets over `n` records. Pairs are
    * canonicalized to (min, max) before set comparison.
    */
  def fromPairSets(n: Long, exp: Set[(Int, Int)], gold: Set[(Int, Int)]): ConfusionMatrix = {
    def canon(s: Set[(Int, Int)]) = s.map { case (a, b) => (math.min(a, b), math.max(a, b)) }
    val e = canon(exp); val g = canon(gold)
    val tp = (e intersect g).size.toLong
    val fp = (e diff g).size.toLong
    val fn = (g diff e).size.toLong
    ConfusionMatrix(tp, fp, fn, ConfusionMatrix.pairsOf(n) - tp - fp - fn)
  }

  /** All intra-cluster pairs (a, b), a < b, of a clustering (id, cluster):
    * the pair-set view of an experiment. Quadratic in cluster sizes.
    */
  def pairsFromClustering(clustering: DataFrame): DataFrame = {
    val l = clustering.select(col("cluster"), col("id").as("a"))
    val r = clustering.select(col("cluster").as("cluster2"), col("id").as("b"))
    l.join(r, l("cluster") === r("cluster2") && col("a") < col("b"))
      .select(col("a"), col("b"))
  }
}
