package repro.core

import repro.SparkSpec

class NoGroundTruthSpec extends SparkSpec {
  import spark.implicits._

  private def records(n: Int) = spark.range(n).toDF("id")

  test("missingClosurePairs is 0 for a transitively closed match set") {
    val matches = Seq((0L, 1L), (1L, 2L), (0L, 2L)).toDF("a", "b")
    assert(NoGroundTruth.missingClosurePairs(records(5), matches) == 0)
  }

  test("missingClosurePairs counts the pairs a closure would add") {
    val matches = Seq((0L, 1L), (1L, 2L)).toDF("a", "b") // closure adds (0,2)
    assert(NoGroundTruth.missingClosurePairs(records(5), matches) == 1)
  }

  test("missingClosurePairs grows with chain length (inconsistency signal)") {
    val chain4 = Seq((0L, 1L), (1L, 2L), (2L, 3L)).toDF("a", "b") // closure adds 3
    val chain3 = Seq((0L, 1L), (1L, 2L)).toDF("a", "b")           // closure adds 1
    assert(NoGroundTruth.missingClosurePairs(records(6), chain4) >
      NoGroundTruth.missingClosurePairs(records(6), chain3))
  }

  test("missingClosurePairs dedups and canonicalizes proposed matches first") {
    val matches = Seq((1L, 0L), (0L, 1L), (1L, 2L)).toDF("a", "b")
    assert(NoGroundTruth.missingClosurePairs(records(4), matches) == 1)
  }

  test("consensusDeviation: unanimous experiments deviate zero") {
    val e = Seq((0L, 1L), (2L, 3L)).toDF("a", "b")
    val got = NoGroundTruth.consensusDeviation(Seq(e, e, e)).toMap
    assert(got.values.forall(_ == 0L))
  }

  test("consensusDeviation: the dissenting experiment accumulates deviations") {
    val common = Seq((0L, 1L), (2L, 3L))
    val e1 = common.toDF("a", "b")
    val e2 = common.toDF("a", "b")
    val e3 = (common :+ ((4L, 5L))).toDF("a", "b") // extra pair nobody else has
    val got = NoGroundTruth.consensusDeviation(Seq(e1, e2, e3)).toMap
    assert(got(0) == 0L && got(1) == 0L)
    assert(got(2) == 1L)
  }

  test("consensusDeviation: missing a majority pair also counts") {
    val e1 = Seq((0L, 1L), (2L, 3L)).toDF("a", "b")
    val e2 = Seq((0L, 1L), (2L, 3L)).toDF("a", "b")
    val e3 = Seq((0L, 1L)).toDF("a", "b") // misses the majority pair (2,3)
    val got = NoGroundTruth.consensusDeviation(Seq(e1, e2, e3)).toMap
    assert(got(2) == 1L)
  }

  test("consensusDeviation requires at least two experiments") {
    val e = Seq((0L, 1L)).toDF("a", "b")
    assertThrows[IllegalArgumentException](NoGroundTruth.consensusDeviation(Seq(e)))
  }

  test("compactness is the mean match score, sparsity the mean of top non-matches") {
    val scored = Seq(
      (0L, 1L, 0.9, true), (2L, 3L, 0.7, true),
      (4L, 5L, 0.6, false), (6L, 7L, 0.2, false),
    ).toDF("a", "b", "score", "matched")
    val (c, s) = NoGroundTruth.compactnessAndSparsity(scored, neighbourhoodSize = 1)
    assert(math.abs(c - 0.8) < 1e-12)
    assert(math.abs(s - 0.6) < 1e-12)
  }

  test("compactnessAndSparsity handles empty classes without NaN") {
    val onlyMatches = Seq((0L, 1L, 0.9, true)).toDF("a", "b", "score", "matched")
    val (c, s) = NoGroundTruth.compactnessAndSparsity(onlyMatches)
    assert(c == 0.9 && s == 0.0)
  }
}
