package repro.emdata

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.Profiling

class EmGenSpec extends SparkSpec {

  private lazy val spec = DatasetSpecs.tiny(n = 400, seed = 21, sp = 0.15)
  private lazy val ds = EmGen.generate(spark, spec)
  private lazy val attrs = spec.attrs.map(_.name)

  test("record count matches the spec") {
    assert(ds.records.count() == spec.nRecords)
  }

  test("ids are unique and sequential from 0") {
    val ids = ds.records.select("id").as[Long](org.apache.spark.sql.Encoders.scalaLong)
      .collect().sorted
    assert(ids.toSeq == (0L until spec.nRecords.toLong))
  }

  test("gold DataFrame agrees with goldArray") {
    val fromDf = ds.gold.collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    ds.goldArray.zipWithIndex.foreach { case (c, i) =>
      assert(fromDf(i.toLong) == c.toLong)
    }
  }

  test("duplicate cluster structure matches the spec") {
    val sizes = ds.goldArray.groupBy(identity).map(_._2.length).toSeq
    spec.dupClusters.foreach { case (size, count) =>
      assert(sizes.count(_ == size) >= count, s"expected >= $count clusters of size $size")
    }
    assert(ds.goldArray.distinct.length ==
      spec.dupClusters.map(_._2).sum + (spec.nRecords - spec.dupRecords))
  }

  test("goldPairCount matches the cluster structure") {
    val expected = spec.dupClusters.map { case (s, c) => c.toLong * s * (s - 1) / 2 }.sum
    assert(spec.goldPairCount == expected)
    val sizes = ds.gold.select("cluster").collect().groupBy(_.getLong(0)).values.map(_.length.toLong)
    assert(sizes.map(s => s * (s - 1) / 2).sum == expected)
  }

  test("measured sparsity is near the configured rate") {
    val sp = Profiling.sparsity(ds.records, attrs)
    val target = spec.attrs.map(_.nullRate).sum / spec.attrs.size
    assert(math.abs(sp - target) < 0.05, s"sparsity $sp vs target $target")
  }

  test("measured textuality is near the configured means") {
    val tx = Profiling.textuality(ds.records, attrs)
    val target = spec.attrs.map(_.meanWords).sum / spec.attrs.size
    assert(math.abs(tx - target) / target < 0.2, s"textuality $tx vs target $target")
  }

  test("all tokens come from the spec's pool") {
    val vocab = Profiling.vocabulary(ds.records, attrs)
      .collect().map(_.getString(0)).toSet
    assert(vocab.subsetOf(spec.pool.toSet))
  }

  test("duplicates share most of their name tokens (corruption is mild)") {
    val recs = ds.records.select("id", "cluster", "name").collect()
      .map(r => (r.getLong(0), r.getLong(1), Option(r.getString(2))))
    val byCluster = recs.groupBy(_._2).filter(_._2.length >= 2)
    val sims = byCluster.values.toSeq.flatMap { members =>
      for {
        Seq(a, b) <- members.toSeq.combinations(2)
        na <- a._3; nb <- b._3
      } yield repro.matching.ReferenceSimilarity.tokenJaccard(na, nb)
    }
    assert(sims.nonEmpty)
    assert(sims.sum / sims.size > 0.5, "duplicate name similarity too low")
  }

  test("non-duplicates rarely look alike") {
    val names = ds.records.filter(col("name").isNotNull)
      .select("cluster", "name").collect().map(r => (r.getLong(0), r.getString(1)))
    val rnd = new scala.util.Random(5)
    val sims = (1 to 200).flatMap { _ =>
      val a = names(rnd.nextInt(names.length)); val b = names(rnd.nextInt(names.length))
      if (a._1 != b._1) Some(repro.matching.ReferenceSimilarity.tokenJaccard(a._2, b._2)) else None
    }
    assert(sims.sum / sims.size < 0.2, "random cross-cluster names too similar")
  }

  test("labeled pairs hit the configured positive ratio exactly") {
    val total = ds.labeledPairs.count()
    val pos = ds.labeledPairs.filter(col("label")).count()
    assert(pos == spec.goldPairCount)
    assert(math.abs(pos.toDouble / total - spec.positiveRatio) < 0.005)
  }

  test("labeled pair labels are consistent with the gold clustering") {
    ds.labeledPairs.collect().foreach { r =>
      val a = r.getLong(0).toInt; val b = r.getLong(1).toInt; val l = r.getBoolean(2)
      assert((ds.goldArray(a) == ds.goldArray(b)) == l)
    }
  }

  // Table 2's sample, pinned from the generator that drew it together with
  // the records: drawing it later, after other generators have run, gives
  // the same rows in the same order.
  test("the labeled pair sample is drawn on first use, bit-identical to the eager sample") {
    val d = EmGen.generate(spark, DatasetSpecs.tiny(n = 300, seed = 5))
    d.records.count()
    EmGen.generate(spark, DatasetSpecs.tiny(n = 300, seed = 6)).labeledPairs.count()
    val rows = d.labeledPairs.collect().map(r => (r.getLong(0), r.getLong(1), r.getBoolean(2))).toSeq
    assert((rows.size, scala.util.hashing.MurmurHash3.orderedHash(rows)) == ((1050, 1635751806)))
  }

  test("generation is deterministic in the seed") {
    val again = EmGen.generate(spark, spec)
    assert(again.records.collect().map(_.toString).sorted.sameElements(
      ds.records.collect().map(_.toString).sorted))
  }

  // Every row of the default tiny dataset, pinned: a changed constant or
  // draw order in the generator changes them, where two runs still agree.
  test("tiny()'s records are pinned at its default seed") {
    val rows = EmGen.generate(spark, DatasetSpecs.tiny()).records.collect().map(_.toSeq).toSeq
    assert((rows.size, scala.util.hashing.MurmurHash3.orderedHash(rows)) == ((300, -68690636)))
  }

  test("a different seed produces different data") {
    val other = EmGen.generate(spark, spec.copy(seed = spec.seed + 1))
    assert(!other.records.collect().map(_.toString).sorted.sameElements(
      ds.records.collect().map(_.toString).sorted))
  }

  test("no task carries the generated rows (4,000 records)") {
    val big = EmGen.generate(spark, DatasetSpecs.tiny(n = 4000, seed = 21))
    for ((name, df) <- Seq("records" -> big.records, "gold" -> big.gold, "labeledPairs" -> big.labeledPairs)) {
      val bytes = partitionBytes(df)
      assert(bytes.max < 16 * 1024, s"$name: partition sizes ${bytes.mkString(", ")} bytes")
    }
  }

  /** The rows of `df`, in order. */
  private def rowsOf(df: org.apache.spark.sql.DataFrame): Array[Seq[Any]] = df.collect().map(_.toSeq)

  /** Fails naming the first index where `got` and `want` differ, with both values. */
  private def assertSameAt[T](what: String, got: Array[T], want: Array[T]): Unit =
    got.indices.find(i => i >= want.length || got(i) != want(i)) match {
      case Some(i) => fail(s"$what differ first at $i: ${got(i)} against the reference's ${want.lift(i).orNull}")
      case None => assert(got.length == want.length, s"$what: ${got.length} rows, the reference ${want.length}")
    }

  // Four tiny() shapes, and one whose attributes draw one token each, so a
  // copy that drops its only token falls back to one of the entity's.
  test("generate gives the reference generator's records, gold and labeled pairs") {
    val oneWord = DatasetSpecs.tiny(n = 500, seed = 9)
    val specs = Seq(DatasetSpecs.tiny(), DatasetSpecs.tiny(n = 400, seed = 21, sp = 0.15),
      DatasetSpecs.tiny(n = 250, seed = 3, sp = 0.4), DatasetSpecs.tiny(n = 1000, seed = 77, sp = 0.02),
      oneWord.copy(attrs = oneWord.attrs.map(_.copy(meanWords = 1))))
    for (spec <- specs) {
      val (got, want) = (EmGen.generate(spark, spec), ReferenceEmGen.generate(spark, spec))
      assertSameAt(s"${spec.name} seed ${spec.seed} gold", got.goldArray, want.goldArray)
      assertSameAt(s"${spec.name} seed ${spec.seed} records", rowsOf(got.records), rowsOf(want.records))
      assertSameAt(s"${spec.name} seed ${spec.seed} labeled pairs", rowsOf(got.labeledPairs), rowsOf(want.labeledPairs))
    }
  }

  test("the four notebook datasets generated at once equal those generated one by one") {
    val specs = IndexedSeq(DatasetSpecs.x2, DatasetSpecs.z2, DatasetSpecs.x3, DatasetSpecs.z3)
    // The ordered digest of each partition's rows, in partition order.
    def digest(d: EmGen.EmDataset): Int = scala.util.hashing.MurmurHash3.orderedHash(
      d.records.rdd.mapPartitions(rows => Iterator(scala.util.hashing.MurmurHash3.orderedHash(rows.map(_.toSeq)))).collect())
    val at = EmGen.generateAll(spark, specs).map(d => (d.goldArray, digest(d)))
    for ((spec, (gold, hash)) <- specs.zip(at)) {
      val alone = EmGen.generate(spark, spec)
      assert(gold.sameElements(alone.goldArray), s"${spec.name}: gold arrays differ")
      assert(hash == digest(alone), s"${spec.name}: records differ")
    }
  }

  test("spec validation: oversized duplicate demand is rejected") {
    assertThrows[IllegalArgumentException](
      spec.copy(nRecords = 10, dupClusters = Seq((5, 10))))
  }
}
