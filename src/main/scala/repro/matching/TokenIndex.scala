package repro.matching

import scala.collection.mutable.{ArrayBuffer, ArrayBuilder}

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.StructType

import repro.core.DriverFrames

/** Records encoded once, for blocking and scoring (Frost pipeline steps 2
  * and 3, Section 1.2), built on the driver and broadcast once.
  *
  * Records are numbered `0 until n` in ascending ID order. For each scored
  * attribute the index holds every record's sorted token IDs (null for a
  * null value), encoded with [[Similarity.encode]] against one
  * [[Similarity.TokenDictionary]] of the dataset's tokens. For blocking it
  * holds CSR (compressed sparse row) postings of the kept blocks: the
  * blocking keys shared by 2 to `maxBlockSize` records, in key order, with
  * their members and, per record, the blocks it is in.
  *
  * A candidate pair is a pair of records sharing a kept block. Each is
  * emitted once, from its smallest shared block (comparison propagation,
  * Papadakis et al., WSDM 2011), so the tasks that emit the blocks' pairs
  * need no shuffle and no `distinct`.
  */
private[matching] final class TokenIndex private (
    val ids: Array[Long],
    val encoded: Array[Array[Array[Int]]],
    blockStart: Array[Int],
    blockMembers: Array[Int],
    recordStart: Array[Int],
    recordBlocks: Array[Int],
) extends Serializable {

  def blocks: Int = blockStart.length - 1

  /** `row(i, j)` for every candidate pair i < j whose smallest shared
    * block is in `[from, until)`, block by block.
    */
  def pairs(from: Int, until: Int)(row: (Int, Int) => Row): Iterator[Row] =
    Iterator.range(from, until).flatMap { blk =>
      val out = ArrayBuffer.empty[Row]
      val end = blockStart(blk + 1)
      var x = blockStart(blk)
      while (x < end) {
        var y = x + 1
        while (y < end) {
          val i = blockMembers(x); val j = blockMembers(y)
          if (firstSharedBlock(i, j) == blk) out += row(i, j)
          y += 1
        }
        x += 1
      }
      out
    }

  /** The smallest block both records are in, by one merge of their sorted
    * block lists; -1 when they share none.
    */
  private def firstSharedBlock(i: Int, j: Int): Int = {
    var p = recordStart(i); val pEnd = recordStart(i + 1)
    var q = recordStart(j); val qEnd = recordStart(j + 1)
    while (p < pEnd && q < qEnd) {
      val u = recordBlocks(p); val v = recordBlocks(q)
      if (u == v) return u
      if (u < v) p += 1 else q += 1
    }
    -1
  }

  /** A DataFrame of `row(i, j)` over every candidate pair, computed in
    * Spark tasks over ranges of blocks cut to about equal numbers of block
    * pairs. The index and `row` are broadcast once; `row` should capture
    * the index and what it reads, not an object holding more.
    */
  def frame(spark: SparkSession, schema: StructType)(row: (Int, Int) => Row): DataFrame = {
    val cuts = sliceCuts(2 * spark.sparkContext.defaultParallelism)
    val index = this
    DriverFrames.flat(spark, cuts.length - 1, schema)(s => index.pairs(cuts(s), cuts(s + 1))(row))
  }

  /** Block indices cutting `[0, blocks)` into at most `slices` ranges of
    * about equal Σ C(size, 2).
    */
  private def sliceCuts(slices: Int): Array[Int] = {
    val work = Array.tabulate(blocks) { b => val s = (blockStart(b + 1) - blockStart(b)).toLong; s * (s - 1) / 2 }
    val total = work.sum
    val cuts = ArrayBuffer(0)
    var acc = 0L
    var b = 0
    while (b < blocks) {
      acc += work(b)
      b += 1
      if (b < blocks && acc * slices >= total * cuts.length) cuts += b
    }
    (cuts += blocks).toArray
  }
}

private[matching] object TokenIndex {

  /** Index of `records` (a unique, non-null long `id` per record) over the
    * blocking attributes and the scored attributes. Runs two Spark jobs:
    * one collects the distinct tokens into the dictionary, one encodes each
    * record once.
    *
    * @throws IllegalArgumentException naming the ID, if an ID is null or
    *         appears more than once
    */
  def apply(
      records: DataFrame,
      blockingAttrs: Seq[String],
      scoredAttrs: Seq[String],
      maxBlockSize: Int,
      vocab: Option[Set[String]],
  ): TokenIndex = {
    require(blockingAttrs.nonEmpty, "need at least one blocking attribute")
    val attrs = (blockingAttrs ++ scoredAttrs).distinct
    val blockingCols = blockingAttrs.map(attrs.indexOf).toArray
    val scoredCols = scoredAttrs.map(attrs.indexOf).toArray
    val sc = records.sparkSession.sparkContext

    val tokensOf = udf((vs: Seq[String]) => vs.flatMap(Similarity.tokens).distinct)
    val distinct = records.select(explode(tokensOf(array(attrs.map(a => col(a).cast("string")): _*)))).distinct()
      .collect().map(_.getString(0))
    val dict = sc.broadcast(Similarity.dictionary(distinct, vocab))
    val keys = dict.value.blockingKeys

    // Per record: its ID (boxed, so a null reaches the driver), the scored
    // attributes' encodings and its distinct blocking keys, ascending.
    val rows = records.select(col("id").cast("long") +: attrs.map(a => col(a).cast("string")): _*).rdd.map { r =>
      val enc = Array.tabulate(attrs.length)(k => Similarity.encode(r.getString(k + 1), dict.value))
      val blockingKeys = blockingCols.flatMap(k => Option(enc(k)).getOrElse(Array.emptyIntArray))
        .filter(t => t >= 0 && t < keys).distinct.sorted
      (r.get(0).asInstanceOf[java.lang.Long], scoredCols.map(enc), blockingKeys)
    }.collect()
    dict.destroy()

    rows.foreach { case (id, _, _) => require(id != null, "a record has a null id") }
    val sorted = rows.sortBy(_._1.longValue)
    val ids = sorted.map(_._1.longValue)
    var i = 1
    while (i < ids.length) {
      require(ids(i) != ids(i - 1), s"record id ${ids(i)} appears more than once")
      i += 1
    }
    val encoded = Array.tabulate(scoredCols.length)(k => sorted.map(_._2(k)))
    postings(ids, encoded, sorted.map(_._3), keys, maxBlockSize)
  }

  /** The index with the CSR postings of the keys held by 2 to
    * `maxBlockSize` records; `recordKeys(i)` are record i's keys, ascending.
    */
  private def postings(
      ids: Array[Long],
      encoded: Array[Array[Array[Int]]],
      recordKeys: Array[Array[Int]],
      keys: Int,
      maxBlockSize: Int,
  ): TokenIndex = {
    val size = new Array[Int](keys)
    recordKeys.foreach(_.foreach(t => size(t) += 1))
    // Kept keys are numbered as blocks in key order, so each record's block
    // list is ascending like its key list.
    val blockOf = Array.fill(keys)(-1)
    val blockStart = ArrayBuffer(0)
    var t = 0
    while (t < keys) {
      if (size(t) >= 2 && size(t) <= maxBlockSize) {
        blockOf(t) = blockStart.length - 1
        blockStart += blockStart.last + size(t)
      }
      t += 1
    }
    val fill = blockStart.toArray
    val blockMembers = new Array[Int](fill.last)
    val recordStart = new Array[Int](ids.length + 1)
    val recordBlocks = new ArrayBuilder.ofInt
    var i = 0
    while (i < ids.length) {
      recordKeys(i).foreach { key =>
        val b = blockOf(key)
        if (b >= 0) {
          blockMembers(fill(b)) = i
          fill(b) += 1
          recordBlocks += b
          recordStart(i + 1) += 1
        }
      }
      recordStart(i + 1) += recordStart(i)
      i += 1
    }
    new TokenIndex(ids, encoded, blockStart.toArray, blockMembers, recordStart, recordBlocks.result())
  }
}
