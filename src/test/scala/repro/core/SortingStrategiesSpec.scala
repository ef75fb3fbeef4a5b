package repro.core

import repro.SparkSpec

class SortingStrategiesSpec extends SparkSpec {
  import spark.implicits._

  test("bySimilarity sorts descending by default") {
    val pairs = Seq((1L, 2L, 0.3), (3L, 4L, 0.9), (5L, 6L, 0.5)).toDF("a", "b", "score")
    val got = SortingStrategies.bySimilarity(pairs).select("score").as[Double].collect()
    assert(got.toSeq == Seq(0.9, 0.5, 0.3))
    val asc = SortingStrategies.bySimilarity(pairs, descending = false)
      .select("score").as[Double].collect()
    assert(asc.toSeq == Seq(0.3, 0.5, 0.9))
  }

  test("bySimilarity fails on a NaN score, naming the pair, in both directions") {
    val pairs = Seq((1L, 2L, 0.3), (3L, 4L, Double.NaN), (5L, 6L, 0.5)).toDF("a", "b", "score")
    for (descending <- Seq(true, false)) {
      val e = intercept[Exception](SortingStrategies.bySimilarity(pairs, descending).collect())
      assert(e.getMessage.contains("pair (3, 4) has a NaN score"), s"descending=$descending: ${e.getMessage}")
    }
  }

  test("recordEntropy: unique tokens carry more information than repeated ones") {
    // "rare" appears once in the column; "common" appears in every record.
    val records = Seq(
      (0L, "common rare"),
      (1L, "common common"),
      (2L, "common common"),
    ).toDF("id", "name")
    val ent = SortingStrategies.recordEntropy(records, Seq("name"))
      .as[(Long, Double)].collect().toMap
    assert(ent(0L) > ent(1L))
    assert(ent(1L) == ent(2L))
  }

  test("recordEntropy matches the hand-computed formula") {
    // column tokens: a a b → columnProb(a)=2/3, columnProb(b)=1/3
    val records = Seq((0L, "a b"), (1L, "a")).toDF("id", "name")
    val ent = SortingStrategies.recordEntropy(records, Seq("name"))
      .as[(Long, Double)].collect().toMap
    val e0 = 0.5 * -math.log(2.0 / 3) + 0.5 * -math.log(1.0 / 3)
    val e1 = 1.0 * -math.log(2.0 / 3)
    assert(math.abs(ent(0L) - e0) < 1e-9)
    assert(math.abs(ent(1L) - e1) < 1e-9)
  }

  test("recordEntropy handles nulls and empty cells as zero entropy") {
    val records = Seq((0L, "alpha beta"), (1L, null), (2L, "")).toDF("id", "name")
    val ent = SortingStrategies.recordEntropy(records, Seq("name"))
      .as[(Long, Double)].collect().toMap
    assert(ent.keySet == Set(0L, 1L, 2L))
    assert(ent(1L) == 0.0 && ent(2L) == 0.0)
    assert(ent(0L) > 0)
  }

  test("recordEntropy tokenizes as Similarity does: case folded, split on Java's whitespace only") {
    // "Laptop" and "laptop" are one token; a vertical tab and a form feed
    // break words, the no-break space U+00A0 does not, so "pro max" joined by
    // it is one token, like "promax".
    val records = Seq(
      (0L, "Laptop\u000Blaptop\fpro", "laptop laptop pro"),
      (1L, "pro\u00A0max LAPTOP", "promax laptop"),
    ).toDF("id", "raw", "plain")
    def entropy(attr: String): Map[Long, Double] =
      SortingStrategies.recordEntropy(records, Seq(attr)).as[(Long, Double)].collect().toMap
    val (raw, plain) = (entropy("raw"), entropy("plain"))
    assert(raw.keySet == Set(0L, 1L))
    for (id <- raw.keys) assert(math.abs(raw(id) - plain(id)) < 1e-12, s"record $id: ${raw(id)} vs ${plain(id)}")
  }

  test("recordEntropy sums over multiple attribute columns") {
    val records = Seq((0L, "x", "y"), (1L, "x", "z")).toDF("id", "c1", "c2")
    val both = SortingStrategies.recordEntropy(records, Seq("c1", "c2"))
      .as[(Long, Double)].collect().toMap
    val c1Only = SortingStrategies.recordEntropy(records, Seq("c1"))
      .as[(Long, Double)].collect().toMap
    assert(both(0L) > c1Only(0L) - 1e-12)
  }

  test("byEntropy sorts pairs by the sum of record entropies") {
    val records = Seq(
      (0L, "rare1 rare2"), (1L, "rare3 rare4"),
      (2L, "common"), (3L, "common"), (4L, "common"), (5L, "common"),
    ).toDF("id", "name")
    val pairs = Seq((0L, 1L), (2L, 3L), (4L, 5L)).toDF("a", "b")
    val got = SortingStrategies.byEntropy(pairs, records, Seq("name"))
      .select("a", "b").as[(Long, Long)].collect()
    assert(got.head == ((1L, 0L)) || got.head == ((0L, 1L)))
  }

  test("byEntropy exposes the pairEntropy column") {
    val records = Seq((0L, "a"), (1L, "b")).toDF("id", "name")
    val pairs = Seq((0L, 1L)).toDF("a", "b")
    val cols = SortingStrategies.byEntropy(pairs, records, Seq("name")).columns
    assert(cols.contains("pairEntropy"))
  }
}
