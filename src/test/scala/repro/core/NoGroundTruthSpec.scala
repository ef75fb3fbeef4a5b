package repro.core

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty

import repro.SparkSpec

class NoGroundTruthSpec extends SparkSpec {
  import spark.implicits._

  test("missingClosurePairs is 0 for a transitively closed match set") {
    val matches = Seq((0L, 1L), (1L, 2L), (0L, 2L)).toDF("a", "b")
    assert(NoGroundTruth.missingClosurePairs(matches) == 0)
  }

  test("missingClosurePairs counts the pairs a closure would add") {
    val matches = Seq((0L, 1L), (1L, 2L)).toDF("a", "b") // closure adds (0,2)
    assert(NoGroundTruth.missingClosurePairs(matches) == 1)
  }

  test("missingClosurePairs grows with chain length (inconsistency signal)") {
    val chain4 = Seq((0L, 1L), (1L, 2L), (2L, 3L)).toDF("a", "b") // closure adds 3
    val chain3 = Seq((0L, 1L), (1L, 2L)).toDF("a", "b")           // closure adds 1
    assert(NoGroundTruth.missingClosurePairs(chain4) >
      NoGroundTruth.missingClosurePairs(chain3))
  }

  test("missingClosurePairs dedups and canonicalizes proposed matches first") {
    val matches = Seq((1L, 0L), (0L, 1L), (1L, 2L)).toDF("a", "b")
    assert(NoGroundTruth.missingClosurePairs(matches) == 1)
  }

  test("missingClosurePairs equals a brute-force count on any IDs, orientations and duplicates (property)") {
    val prop = Prop.forAllNoShrink(NoGroundTruthSpec.matches) { pairs =>
      val got = NoGroundTruth.missingClosurePairs(pairs.toDF("a", "b"))
      val want = NoGroundTruthSpec.bruteForce(pairs)
      (got == want) :| s"missingClosurePairs $got, brute force $want"
    }
    val result = Check.check(Check.Parameters.default.withMinSuccessfulTests(40).withInitialSeed(Seed(17L)), prop)
    assert(result.passed, Pretty.pretty(result))
  }

  test("missingClosurePairs starts at most 2 Spark jobs on a 300-edge graph") {
    for (seed <- 1L to 3L) {
      val rnd = new scala.util.Random(seed)
      val pairs = Seq.fill(300)((rnd.nextInt(500).toLong, rnd.nextInt(500).toLong))
      val df = spark.sparkContext.parallelize(pairs, 4).toDF("a", "b")
      val (got, jobs) = jobsOf(NoGroundTruth.missingClosurePairs(df))
      assert(got == NoGroundTruthSpec.bruteForce(pairs), s"seed $seed")
      assert(jobs <= 2, s"seed $seed: missingClosurePairs started $jobs Spark jobs")
    }
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

  test("compactnessAndSparsity fails on a NaN score of a match or a non-match, naming the pair") {
    for (matched <- Seq(true, false)) {
      val scored = Seq((0L, 1L, 0.9, true), (2L, 3L, Double.NaN, matched), (4L, 5L, 0.6, false))
        .toDF("a", "b", "score", "matched")
      val e = intercept[Exception](NoGroundTruth.compactnessAndSparsity(scored))
      assert(e.getMessage.contains("pair (2, 3) has a NaN score"), s"matched=$matched: ${e.getMessage}")
    }
  }
}

object NoGroundTruthSpec {

  /** Match lists over a few IDs, small and at or above 2^40, so that
    * duplicates, both orientations, self-pairs and shared endpoints are
    * common; one list in eight is empty.
    */
  val matches: Gen[Seq[(Long, Long)]] = {
    val id = Gen.oneOf(0L, 1L, 2L, 7L, 1L << 40, (1L << 40) + 1, (1L << 41) + 5, Long.MaxValue)
    Gen.frequency(1 -> Gen.const(Seq.empty), 7 -> Gen.choose(1, 14).flatMap(Gen.listOfN(_, Gen.zip(id, id))))
  }

  /** The closure's pair count, over components merged until no proposed
    * pair joins two, minus the distinct canonical proposed pairs.
    */
  def bruteForce(pairs: Seq[(Long, Long)]): Long = {
    val proposed = pairs.collect { case (a, b) if a != b => (a min b, a max b) }.toSet
    var components = proposed.toSeq.flatMap { case (a, b) => Seq(a, b) }.distinct.map(Set(_))
    var merged = true
    while (merged) {
      merged = false
      for ((a, b) <- proposed if !merged) {
        val (ca, cb) = (components.find(_(a)).get, components.find(_(b)).get)
        if (ca != cb) { components = components.filterNot(c => c == ca || c == cb) :+ (ca ++ cb); merged = true }
      }
    }
    components.map(c => c.size.toLong * (c.size - 1) / 2).sum - proposed.size
  }
}
