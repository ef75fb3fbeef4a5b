package repro.core

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

class ConfusionMatrixSpec extends AnyFunSuite {

  test("pairsOf") {
    assert(ConfusionMatrix.pairsOf(0) == 0)
    assert(ConfusionMatrix.pairsOf(1) == 0)
    assert(ConfusionMatrix.pairsOf(2) == 1)
    assert(ConfusionMatrix.pairsOf(5) == 10)
    assert(ConfusionMatrix.pairsOf(1000000) == 499999500000L)
  }

  test("derived counts") {
    val m = ConfusionMatrix(tp = 3, fp = 2, fn = 1, tn = 4)
    assert(m.predictedPositive == 5)
    assert(m.actualPositive == 4)
    assert(m.totalPairs == 10)
  }

  test("negative cells rejected") {
    assertThrows[IllegalArgumentException](ConfusionMatrix(-1, 0, 0, 0))
  }

  test("fromClusterings: identical clusterings → no FP/FN") {
    val c = Array(0, 0, 1, 1, 2)
    val m = ConfusionMatrix.fromClusterings(c, c)
    assert(m == ConfusionMatrix(tp = 2, fp = 0, fn = 0, tn = 8))
  }

  test("fromClusterings: all-singleton experiment → only FN and TN") {
    val exp = Array(0, 1, 2, 3)
    val gold = Array(0, 0, 1, 1)
    val m = ConfusionMatrix.fromClusterings(exp, gold)
    assert(m == ConfusionMatrix(tp = 0, fp = 0, fn = 2, tn = 4))
  }

  test("fromClusterings: one big experiment cluster → all gold pairs TP, rest FP") {
    val exp = Array.fill(4)(9)
    val gold = Array(0, 0, 1, 1)
    val m = ConfusionMatrix.fromClusterings(exp, gold)
    assert(m == ConfusionMatrix(tp = 2, fp = 4, fn = 0, tn = 0))
  }

  test("fromClusterings matches paper Figure 10 final step") {
    val exp = Array(0, 0, 0, 0)
    val gold = Array(0, 0, 1, 1)
    assert(ConfusionMatrix.fromClusterings(exp, gold) == ConfusionMatrix(2, 4, 0, 0))
  }

  test("fromClusterings rejects mismatched lengths") {
    assertThrows[IllegalArgumentException](
      ConfusionMatrix.fromClusterings(Array(0, 1), Array(0)))
  }

  test("fromPairSets canonicalizes pair order") {
    val m = ReferencePairs.fromPairSets(3, Set((1, 0)), Set((0, 1)))
    assert(m == ConfusionMatrix(tp = 1, fp = 0, fn = 0, tn = 2))
  }

  test("fromPairSets basic partitions") {
    val exp = Set((0, 1), (2, 3))
    val gold = Set((0, 1), (1, 2))
    val m = ReferencePairs.fromPairSets(4, exp, gold)
    assert(m == ConfusionMatrix(tp = 1, fp = 1, fn = 1, tn = 3))
  }

  for (seed <- 1 to 6) {
    test(s"fromClusterings consistent with fromPairSets (seed=$seed)") {
      // IDs from the extremes, -1, 0 and sparse values of either sign.
      val n = 20
      def clustering(seed: Long) =
        ClusterMetricsSpec.clustering(n, 6).pureApply(Gen.Parameters.default, Seed(seed))
      val exp = clustering(seed)
      val gold = clustering(seed + 100)
      def pairs(c: Array[Int]): Set[(Int, Int)] =
        (for (i <- 0 until n; j <- (i + 1) until n if c(i) == c(j)) yield (i, j)).toSet
      assert(ConfusionMatrix.fromClusterings(exp, gold) ==
        ReferencePairs.fromPairSets(n, pairs(exp), pairs(gold)))
    }
  }
}
