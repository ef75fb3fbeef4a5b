package repro.matching

import scala.collection.mutable
import scala.util.Random

import repro.core.{ConfusionMatrix, ScoredMatch}

/** Synthesizes gold clusterings and scored experiments with controlled
  * sizes and quality — stands in for the paper's real matching-solution
  * outputs in runtime experiments (Table 1), where only the sizes
  * (|D|, |Matches|) and the score/correctness structure matter, not the
  * record content (see DESIGN.md, Substitutions).
  *
  * Everything is deterministic in the seed.
  */
object ExperimentGen {

  /** A gold clustering with `numClusters` duplicate clusters of size
    * `clusterSize` (records 0..numClusters*clusterSize-1) and the remaining
    * records as singletons. Cluster IDs are arbitrary but stable.
    */
  def uniformGold(n: Int, numClusters: Int, clusterSize: Int): Array[Int] = {
    require(clusterSize >= 1 && numClusters >= 0, "invalid cluster shape")
    require(numClusters.toLong * clusterSize <= n, s"clusters exceed dataset: $numClusters x $clusterSize > $n")
    Array.tabulate(n) { i =>
      if (i < numClusters * clusterSize) i / clusterSize
      else numClusters + (i - numClusters * clusterSize)
    }
  }

  /** Smallest uniform gold clustering of `clusterSize`-clusters whose
    * intra-cluster pair count covers `pairBudget`.
    */
  def goldForPairBudget(n: Int, pairBudget: Long, clusterSize: Int): Array[Int] = {
    val perCluster = ConfusionMatrix.pairsOf(clusterSize.toLong)
    require(perCluster > 0, s"cluster size $clusterSize yields no pairs")
    val numClusters = math.ceil(pairBudget.toDouble / perCluster).toInt
    uniformGold(n, numClusters, clusterSize)
  }

  /** All intra-cluster pairs of a clustering, in index order. */
  def goldPairs(gold: Array[Int]): Vector[(Int, Int)] = {
    val members = mutable.LongMap.empty[mutable.ArrayBuffer[Int]]
    var i = 0
    while (i < gold.length) {
      members.getOrElseUpdate(gold(i).toLong, mutable.ArrayBuffer.empty[Int]) += i
      i += 1
    }
    val out = Vector.newBuilder[(Int, Int)]
    members.values.foreach { ms =>
      var x = 0
      while (x < ms.length) {
        var y = x + 1
        while (y < ms.length) { out += ((ms(x), ms(y))); y += 1 }
        x += 1
      }
    }
    out.result()
  }

  /** A scored experiment of exactly `targetMatches` pairs over `gold`:
    * ~`(1-fpRate)` true intra-cluster pairs (scores skewed high) and
    * ~`fpRate` cross-cluster false pairs (scores skewed low, overlapping —
    * so threshold sweeps produce realistic precision/recall trade-offs).
    *
    * Fails loudly if the gold clustering cannot supply enough true pairs.
    */
  def scoredExperiment(gold: Array[Int], targetMatches: Int, fpRate: Double, seed: Long): IndexedSeq[ScoredMatch] = {
    require(fpRate >= 0 && fpRate < 1, s"fpRate out of range: $fpRate")
    val rnd = new Random(seed)
    val tpCount = math.round(targetMatches * (1 - fpRate)).toInt
    val fpCount = targetMatches - tpCount

    val truePairs = rnd.shuffle(goldPairs(gold))
    require(truePairs.size >= tpCount,
      s"gold supplies ${truePairs.size} true pairs, need $tpCount — enlarge clusters")
    val tps = truePairs.take(tpCount).map { case (a, b) =>
      ScoredMatch(a, b, clamp(0.55 + 0.45 * rnd.nextDouble() + 0.05 * rnd.nextGaussian()))
    }

    val n = gold.length
    val seen = new mutable.LongMap[Unit](fpCount)
    val fps = Vector.newBuilder[ScoredMatch]
    var produced = 0
    var attempts = 0
    while (produced < fpCount && attempts < fpCount * 100 + 1000) {
      val a = rnd.nextInt(n); val b = rnd.nextInt(n)
      attempts += 1
      if (a != b && gold(a) != gold(b)) {
        val key = math.min(a, b).toLong * n + math.max(a, b)
        if (!seen.contains(key)) {
          seen(key) = ()
          fps += ScoredMatch(math.min(a, b), math.max(a, b),
            clamp(0.25 + 0.45 * rnd.nextDouble() + 0.05 * rnd.nextGaussian()))
          produced += 1
        }
      }
    }
    require(produced == fpCount, s"could not sample $fpCount distinct false pairs")
    (tps ++ fps.result()).toIndexedSeq
  }

  private def clamp(x: Double): Double = math.min(1.0, math.max(0.0, x))
}
