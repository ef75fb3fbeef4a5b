package repro.matching

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The token index as three Spark jobs, the reference [[TokenIndex]] is
  * checked against: the regex tokenizer in a UDF, `explode` and `distinct`
  * collect the dataset's distinct tokens; the driver sorts them, and a token's
  * ID is its rank; the sorted tokens are broadcast, and a second pass
  * tokenizes every value again and looks each token up by binary search.
  */
object ReferenceTokenIndex {

  /** Whitespace tokenization by regex, lower-cased, empty tokens dropped. */
  def tokens(s: String): Set[String] =
    if (s == null) Set.empty
    else s.toLowerCase.split("\\s+").iterator.filter(_.nonEmpty).toSet

  /** The sorted ranks in `sorted` of the tokens of `s`; null stays null. */
  def encode(s: String, sorted: Array[String]): Array[Int] =
    if (s == null) null
    else {
      val ids = tokens(s).iterator.map { t =>
        val r = java.util.Arrays.binarySearch(sorted.asInstanceOf[Array[AnyRef]], t)
        if (r >= 0) r else throw new IllegalStateException(s"token '$t' is not among the dataset's tokens")
      }.toArray
      java.util.Arrays.sort(ids)
      ids
    }

  def apply(records: DataFrame, blockingAttrs: Seq[String], scoredAttrs: Seq[String]): TokenIndex = {
    require(blockingAttrs.nonEmpty, "need at least one blocking attribute")
    val attrs = (blockingAttrs ++ scoredAttrs).distinct
    val blockingCols = blockingAttrs.map(attrs.indexOf).toArray
    val scoredCols = scoredAttrs.map(attrs.indexOf).toArray
    val sc = records.sparkSession.sparkContext

    val tokensOf = udf((vs: Seq[String]) => vs.flatMap(tokens).distinct)
    val sorted = records.select(explode(tokensOf(array(attrs.map(a => col(a).cast("string")): _*)))).distinct()
      .collect().map(_.getString(0)).sorted
    val shared = sc.broadcast(sorted)

    // Per record: its ID (boxed, so a null reaches the driver), the scored
    // attributes' encodings and its distinct blocking token IDs, ascending.
    val rows = records.select(col("id").cast("long") +: attrs.map(a => col(a).cast("string")): _*).rdd.map { r =>
      val enc = Array.tabulate(attrs.length)(k => encode(r.getString(k + 1), shared.value))
      val blockingTokens = blockingCols.flatMap(k => Option(enc(k)).getOrElse(Array.emptyIntArray)).distinct.sorted
      (r.get(0).asInstanceOf[java.lang.Long], scoredCols.map(enc), blockingTokens)
    }.collect()
    shared.destroy()

    rows.foreach { case (id, _, _) => require(id != null, "a record has a null id") }
    val byId = rows.sortBy(_._1.longValue)
    val ids = byId.map(_._1.longValue)
    var i = 1
    while (i < ids.length) {
      require(ids(i) != ids(i - 1), s"record id ${ids(i)} appears more than once")
      i += 1
    }
    new TokenIndex(ids, sorted, Array.tabulate(scoredCols.length)(k => byId.map(_._2(k))), byId.map(_._3))
  }

  /** The postings of `index` under `vocab`, with the tokens that may form
    * blocks chosen from the strings: known, and at least
    * [[Blocking.shortestToken]] code points, as Spark's `length` counts them.
    */
  def postings(index: TokenIndex, vocab: Option[Set[String]], maxBlockSize: Int): Postings = {
    val isKey = index.tokens.map(t => vocab.forall(_.contains(t)) && t.codePointCount(0, t.length) >= Blocking.shortestToken)
    Postings(index.blockingTokens, isKey, maxBlockSize)
  }
}
