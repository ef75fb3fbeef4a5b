package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.ConnectedComponents

/** Quality estimation without a ground truth (Frost, Section 3.2.3). */
object NoGroundTruth {

  /** Number of pairs missing to transitively close a match set: the pair
    * count of the closure minus the distinct proposed pairs, both counted on
    * the driver over the collected canonical pairs. The larger, the more
    * inconsistent the proposed matches.
    */
  def missingClosurePairs(matchPairs: DataFrame): Long = {
    val edges = SetComparison.canonicalPairs(matchPairs).select(col("a").as("src"), col("b").as("dst"))
    val (src, dst) = ConnectedComponents.collectEdges(edges, ConnectedComponents.maxEdges)
    ConnectedComponents.closedPairCount(src, dst) - src.length
  }

  /** Consensus deviation (majority vote over several experiments): for every
    * pair proposed by at least one experiment, the majority vote is "match"
    * iff more than half of the experiments contain it; an experiment's
    * deviation is the number of its decisions differing from the majority.
    * Returns (experiment index, deviations).
    */
  def consensusDeviation(experiments: Seq[DataFrame]): Seq[(Int, Long)] = {
    require(experiments.size >= 2, "consensus needs at least two experiments")
    val has = experiments.indices.map(i => col("region").bitwiseAND(1L << i) =!= 0)
    val majority = has.map(h => when(h, 1).otherwise(0)).reduce(_ + _) > experiments.size / 2.0
    // One aggregation over the Venn regions: per experiment, the pairs it
    // decides against the majority.
    val deviations = SetComparison.vennRegions(experiments)
      .select(has.map(h => count(when(h =!= majority, true))): _*)
      .collect()(0)
    experiments.indices.map(i => (i, deviations.getLong(i)))
  }

  /** Compactness of matched pairs and sparsity of close non-matches
    * (Chaudhuri et al.): mean score of matches vs mean score of the
    * highest-scoring non-matches. Higher compactness and lower neighbourhood
    * similarity suggest a better matching result.
    *
    * @param scored (a, b, score, matched: Boolean) — all scored candidate pairs
    */
  def compactnessAndSparsity(scored: DataFrame, neighbourhoodSize: Int = 1000): (Double, Double) = {
    // The mean of no scores is null, which reads as 0; a NaN score fails.
    val score = SetComparison.checkedScore
    val mean = coalesce(avg(score), lit(0.0))
    val compactness = scored.filter(col("matched")).agg(mean).collect()(0).getDouble(0)
    val sparsity = scored.filter(!col("matched"))
      .orderBy(score.desc).limit(neighbourhoodSize)
      .agg(mean).collect()(0).getDouble(0)
    (compactness, sparsity)
  }
}
