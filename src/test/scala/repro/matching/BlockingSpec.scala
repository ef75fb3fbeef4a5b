package repro.matching

import repro.SparkSpec

class BlockingSpec extends SparkSpec {
  import spark.implicits._

  private val records = Seq(
    (0L, "thinkpad x230 laptop"),
    (1L, "thinkpad x230"),
    (2L, "macbook pro laptop"),
    (3L, "macbook air"),
    (4L, null.asInstanceOf[String]),
  ).toDF("id", "name")

  private def pairs(df: org.apache.spark.sql.DataFrame): Set[(Long, Long)] =
    df.as[(Long, Long)].collect().toSet

  test("records sharing a token become candidates") {
    val got = pairs(Blocking.tokenBlocking(records, Seq("name"), maxBlockSize = 10))
    assert(got.contains((0L, 1L))) // share thinkpad, x230
    assert(got.contains((2L, 3L))) // share macbook
    assert(got.contains((0L, 2L))) // share laptop
  }

  test("null values produce no blocking keys") {
    val got = pairs(Blocking.tokenBlocking(records, Seq("name"), 10))
    assert(!got.exists(p => p._1 == 4L || p._2 == 4L))
  }

  test("oversized blocks are dropped") {
    // 'laptop' block has 3 members with cap 2 → the (0,2) laptop-only pair disappears
    val recs = Seq(
      (0L, "alpha laptop"), (1L, "alpha laptop"), (2L, "beta laptop"), (3L, "beta other"),
    ).toDF("id", "name")
    val got = pairs(Blocking.tokenBlocking(recs, Seq("name"), maxBlockSize = 2))
    assert(got.contains((0L, 1L))) // alpha block (size 2) survives
    assert(got.contains((2L, 3L))) // beta block survives
    assert(!got.contains((0L, 2L))) // only shared 'laptop', whose block is oversized
  }

  test("short tokens are ignored") {
    val recs = Seq((0L, "ab cdef"), (1L, "ab cdef")).toDF("id", "name")
    val withShort = pairs(Blocking.tokenBlocking(recs, Seq("name"), 10))
    assert(withShort == Set((0L, 1L))) // via cdef, not ab
    val onlyShort = Seq((0L, "ab"), (1L, "ab")).toDF("id", "name")
    assert(pairs(Blocking.tokenBlocking(onlyShort, Seq("name"), 10)).isEmpty)
  }

  test("pairs are canonical (a < b) and distinct") {
    val got = Blocking.tokenBlocking(records, Seq("name"), 10).collect()
    got.foreach(r => assert(r.getLong(0) < r.getLong(1)))
    assert(got.length == got.distinct.length)
  }

  test("multiple blocking attributes contribute keys") {
    val recs = Seq(
      (0L, "alpha", "shared"), (1L, "beta", "shared"),
    ).toDF("id", "name", "brand")
    assert(pairs(Blocking.tokenBlocking(recs, Seq("name"), 10)).isEmpty)
    assert(pairs(Blocking.tokenBlocking(recs, Seq("name", "brand"), 10)) == Set((0L, 1L)))
  }

  test("knownVocab restricts blocking to known tokens") {
    val recs = Seq((0L, "alpha gamma"), (1L, "alpha delta"), (2L, "gamma beta")).toDF("id", "name")
    val all = pairs(Blocking.tokenBlocking(recs, Seq("name"), 10))
    assert(all == Set((0L, 1L), (0L, 2L)))
    val restricted = pairs(Blocking.tokenBlocking(recs, Seq("name"), 10,
      knownVocab = Some(Set("gamma"))))
    assert(restricted == Set((0L, 2L))) // alpha is out-of-vocabulary now
  }
}
